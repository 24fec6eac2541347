//go:build !race

package ssdcheck_test

const raceEnabled = false
