//go:build race

package ssdcheck_test

// raceEnabled reports that the tests were built with -race, whose
// runtime allocates on its own account and so falsifies
// testing.AllocsPerRun.
const raceEnabled = true
