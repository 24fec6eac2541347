// Package cmdtest holds cross-command black-box tests: conventions
// every cmd/ binary must honor, checked against the real built
// binaries rather than their internals.
package cmdtest

import (
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// commands lists every main under cmd/ together with a stray
// positional argument a confused operator might type. All flag
// parsing in this repo is flag-only; a positional argument is always
// a mistake (a typo'd flag, a forgotten dash) and silently ignoring
// it hides the mistake, so every command must reject it with the
// conventional usage exit code 2 and name the offender on stderr.
var commands = []struct {
	name string
	args []string
}{
	{"ssdcheck", []string{"stray"}},
	{"ssdcheckd", []string{"stray"}},
	{"ssdcheck-cluster", []string{"stray"}},
	{"experiments", []string{"-run", "fig1", "stray"}},
	{"replay", []string{"stray.json"}},
}

// TestCommandsListsEveryMain: the commands table names every main
// package under cmd/, so a new command cannot skip the checks here.
func TestCommandsListsEveryMain(t *testing.T) {
	cmd := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./cmd/...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var listed []string
	for _, c := range commands {
		listed = append(listed, "ssdcheck/cmd/"+c.name)
	}
	mains := strings.Fields(string(out))
	slices.Sort(listed)
	slices.Sort(mains)
	if !slices.Equal(listed, mains) {
		t.Fatalf("commands table names %v; the main packages under cmd/ are %v", listed, mains)
	}
}

// buildAll compiles every command once into a shared temp dir.
func buildAll(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, c := range commands {
		args = append(args, "ssdcheck/cmd/"+c.name)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = "../.." // repo root, so the module resolves
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

func TestStrayPositionalArgsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all binaries; skipped in -short")
	}
	bin := buildAll(t)
	for _, c := range commands {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, c.name), c.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("%s %v: err = %v (output %q), want exit error", c.name, c.args, err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("%s %v: exit %d, want 2\n%s", c.name, c.args, code, out)
			}
			if !strings.Contains(string(out), "unexpected argument") &&
				!strings.Contains(string(out), "unexpected arguments") {
				t.Fatalf("%s %v: stderr does not name the stray argument:\n%s", c.name, c.args, out)
			}
			if !strings.Contains(string(out), "stray") {
				t.Fatalf("%s %v: stderr does not echo the offending token:\n%s", c.name, c.args, out)
			}
		})
	}
}

// docFlag matches a -name token that starts a word, a bracket or a
// parenthesis in a doc comment.
var docFlag = regexp.MustCompile(`(?:^|[\s(\[])-([a-z][a-z0-9-]*)`)

// helpFlag matches a flag line of the flag package's -h output.
var helpFlag = regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9-]*)`)

// TestPackageDocFlagsExist: every -name token in a command's package
// doc comment is a flag that the command's -h output lists, so the
// docs cannot keep a flag the command dropped. An indented usage line
// that starts with another command's name (and the lines it continues
// with a trailing backslash) is checked against that command.
func TestPackageDocFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all binaries; skipped in -short")
	}
	bin := buildAll(t)
	flags := map[string]map[string]bool{}
	for _, c := range commands {
		out, _ := exec.Command(filepath.Join(bin, c.name), "-h").CombinedOutput()
		flags[c.name] = map[string]bool{}
		for _, m := range helpFlag.FindAllStringSubmatch(string(out), -1) {
			flags[c.name][m[1]] = true
		}
		if len(flags[c.name]) == 0 {
			t.Fatalf("%s -h lists no flags:\n%s", c.name, out)
		}
	}
	for _, c := range commands {
		t.Run(c.name, func(t *testing.T) {
			doc := packageDoc(t, filepath.Join("..", c.name))
			owner, continued := c.name, false
			for _, line := range strings.Split(doc, "\n") {
				if !continued {
					owner = c.name
					if fields := strings.Fields(line); strings.HasPrefix(line, "\t") && len(fields) > 0 && flags[fields[0]] != nil {
						owner = fields[0]
					}
				}
				continued = strings.HasSuffix(line, `\`)
				for _, m := range docFlag.FindAllStringSubmatch(line, -1) {
					if !flags[owner][m[1]] {
						t.Errorf("package doc names -%s, which %s -h does not list: %q", m[1], owner, strings.TrimSpace(line))
					}
				}
			}
		})
	}
}

// packageDoc returns the package doc comment of the Go package in dir.
func packageDoc(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if f.Doc != nil {
			return f.Doc.Text()
		}
	}
	t.Fatalf("no package doc comment in %s", dir)
	return ""
}
