// The dead-code guard: every package-level identifier and method under
// an internal/ directory, and every name the facade declares, must be
// referenced from non-test code (Example functions count as docs that
// run), or carry an allowlist entry saying why it stays. The module is
// type-checked from source with go/types; the standard library comes
// from the toolchain's export data, so the check needs no network and
// no dependency in go.mod.
package ssdcheck_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// deadAllowlist names identifiers that no non-test code references but
// that stay, each with its reason. An entry that becomes referenced, or
// whose identifier is gone, fails TestNoDeadCode. Only safety code
// belongs here: a reference checker, or a seam that a byte-identity or
// recovery test reads. Code that only tests call otherwise moves into
// its package's test files.
var deadAllowlist = map[string]string{
	"ftl.(*Volume).CheckInvariants":       "reference checker: FuzzVolumeOps and the ftl tests check every operation stream against it",
	"trace.WriteRequests":                 "reference encoder: FuzzReadRequests and TestTraceFileRoundTrip check the parser against it",
	"fleet.(*Manager).ModelLog":           "byte-identity seam: TestModelLogDeterminism and TestDeviceRunsMatchSingleSubmits render it",
	"obs.(*Tracer).WriteJSON":             "byte-identity seam: TestTraceDeterminism and TestDeviceRunsMatchSingleSubmits render traces through it",
	"ssd.(*Device).Volumes":               "byte-identity seam: TestPinnedPresetDeviceDigest hashes every volume's counters",
	"ssd.(*Device).VolumeStats":           "byte-identity seam: TestPinnedPresetDeviceDigest hashes every volume's counters",
	"experiments.Run":                     "byte-identity seam: TestClusterGoldenRenders and TestWorkersByteIdentical render one experiment through it",
	"cluster.(*Harness).CrashCoordinator": "recovery seam: the cluster recovery tests kill the coordinator through it",
	"cluster.(*Harness).Recover":          "recovery seam: the cluster recovery tests rebuild the coordinator from its log through it",
	"cluster.(*Coordinator).Checkpoint":   "recovery seam: the recovery scenario snapshots the log before the crash through it",
}

// knobAllowlist names fields of tuning structs that no code sets but
// that stay, each with its reason. An entry that gains a setter, or
// whose field is gone, fails TestNoUnsetKnob.
var knobAllowlist = map[string]string{
	"core.Params.OverheadAlpha":    "wire-bound: DeviceSpec.Params travels in DeviceState, pinned by fleet's wire_device_state.golden",
	"core.Params.NLReadBase":       "wire-bound: DeviceSpec.Params travels in DeviceState, pinned by fleet's wire_device_state.golden",
	"core.Params.NLWriteBase":      "wire-bound: DeviceSpec.Params travels in DeviceState, pinned by fleet's wire_device_state.golden",
	"core.Params.DisableBelowHL":   "wire-bound: DeviceSpec.Params travels in DeviceState, pinned by fleet's wire_device_state.golden",
	"core.Params.ResetDistBelowHL": "wire-bound: DeviceSpec.Params travels in DeviceState, pinned by fleet's wire_device_state.golden",
	"ecvol.Config.ChunkSectors":    "wire-bound: a field of the POST /v1/volumes JSON body, set by the decoder",
}

func TestNoDeadCode(t *testing.T) {
	skipUnderRace(t)
	res := loadDeadModule(t).scan(t, nil)
	for _, f := range res.unlisted(deadAllowlist) {
		t.Errorf("dead code: %s is referenced by no non-test code; delete it or add it to deadAllowlist with a reason", f)
	}
	for _, msg := range res.stale(deadAllowlist) {
		t.Errorf("stale allowlist entry: %s", msg)
	}
}

// TestNoDeadCodeChecker seeds the module with code the checker must (or
// must not) report, parsed from strings and added to a package's files.
// Each seeded scan is compared net of the unseeded scan's findings, so
// real dead code fails TestNoDeadCode alone.
func TestNoDeadCodeChecker(t *testing.T) {
	skipUnderRace(t)
	m := loadDeadModule(t)
	base := m.scan(t, nil)
	seeded := func(t *testing.T, seeds map[string][]seedFile) []string {
		t.Helper()
		return m.scan(t, seeds).without(base)
	}

	t.Run("seeded export is reported", func(t *testing.T) {
		got := seeded(t, map[string][]seedFile{
			"ssdcheck/internal/stats": {{"seeded.go", "package stats\n\nfunc SeededDead() {}\n"}},
		})
		if len(got) != 1 || got[0] != "stats.SeededDead" {
			t.Fatalf("findings = %v, want [stats.SeededDead]", got)
		}
	})

	t.Run("stale allowlist entries fail", func(t *testing.T) {
		allow := map[string]string{
			"stats.Mean":      "referenced by experiments",
			"stats.NoSuchOne": "never existed",
		}
		got := base.stale(allow)
		if len(got) != 2 || !strings.HasPrefix(got[0], "stats.Mean ") || !strings.HasPrefix(got[1], "stats.NoSuchOne ") {
			t.Fatalf("stale = %q, want one entry each for stats.Mean and stats.NoSuchOne", got)
		}
	})

	t.Run("method reached through an interface is live", func(t *testing.T) {
		got := seeded(t, map[string][]seedFile{
			"ssdcheck/internal/stats": {{"seeded.go", "package stats\n\ntype SeededLabel int\n\nfunc (SeededLabel) String() string { return \"label\" }\n"}},
			"ssdcheck/cmd/replay":     {{"seeded.go", "package main\n\nimport (\n\t\"fmt\"\n\n\t\"ssdcheck/internal/stats\"\n)\n\nvar _ = fmt.Sprint(stats.SeededLabel(0))\n"}},
		})
		if len(got) != 0 {
			t.Fatalf("findings = %v, want none", got)
		}
	})

	t.Run("reference from a test file does not count", func(t *testing.T) {
		got := seeded(t, map[string][]seedFile{
			"ssdcheck/internal/stats": {
				{"seeded.go", "package stats\n\nfunc SeededTestOnly() {}\n"},
				{"seeded_test.go", "package stats\n\nfunc init() { SeededTestOnly() }\n"},
			},
		})
		if len(got) != 1 || got[0] != "stats.SeededTestOnly" {
			t.Fatalf("findings = %v, want [stats.SeededTestOnly]", got)
		}
	})
}

// TestNoUnsetKnob: every field of a tuning struct under internal/ (a
// struct type named *Config, *Policy, *Opts or Params) is set somewhere
// outside the type's own methods, by an assignment or as a
// composite-literal key; test code counts. A field nothing sets has
// one value in use, and belongs in a named constant beside the code
// that reads it, not in a knob every test and benchmark would have to
// cover.
func TestNoUnsetKnob(t *testing.T) {
	skipUnderRace(t)
	m := loadDeadModule(t)
	census := m.knobCensus(t, nil)
	for _, k := range census.unset {
		if _, ok := knobAllowlist[k]; !ok {
			t.Errorf("unset knob: %s is set by no code; fold it into a constant or add it to knobAllowlist with a reason", k)
		}
	}
	for k := range knobAllowlist {
		switch {
		case !census.fields[k]:
			t.Errorf("stale knob allowlist entry: %s no longer exists", k)
		case !slices.Contains(census.unset, k):
			t.Errorf("stale knob allowlist entry: %s is set", k)
		}
	}

	t.Run("seeded unset field fails", func(t *testing.T) {
		src, err := os.ReadFile(filepath.Join("internal", "cluster", "cluster.go"))
		if err != nil {
			t.Fatal(err)
		}
		const anchor = "\tSeed uint64\n"
		if !bytes.Contains(src, []byte(anchor)) {
			t.Fatalf("cluster.go has no %q line to seed after", anchor)
		}
		seeded := strings.Replace(string(src), anchor, anchor+"\tSeededUnset int\n", 1)
		got := m.knobCensus(t, map[string][]seedFile{
			"ssdcheck/internal/cluster": {{"cluster.go", seeded}},
		}).unset
		if !slices.Contains(got, "cluster.Policy.SeededUnset") {
			t.Fatalf("unset knobs = %v, want cluster.Policy.SeededUnset among them", got)
		}
	})
}

// knobCensus is every tuning-struct field in scope and those no code
// sets.
type knobCensus struct {
	fields map[string]bool
	unset  []string // sorted
}

// knobCensus finds the tuning structs under internal/ and the fields
// that no code sets outside the struct's own methods. Each package's
// in-package tests are checked as go test builds them: a variant of the
// package that imports the others' non-test code. Setting a field of a
// field (cfg.Health.ProbeRequests = x) sets both.
func (m *deadModule) knobCensus(t *testing.T, seeds map[string][]seedFile) knobCensus {
	t.Helper()
	c := m.check(t, seeds)
	type unit struct {
		pkg   *types.Package
		files []*ast.File
		info  *types.Info
	}
	var units []unit
	for path, pkg := range c.pkgs {
		units = append(units, unit{pkg, c.files[path], c.infos[path]})
	}
	for path, tests := range m.tests {
		files := append(slices.Clone(c.files[path]), tests...)
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: c}).Check(path, m.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s with its tests: %v", path, err)
		}
		units = append(units, unit{pkg, files, info})
	}

	census := knobCensus{fields: map[string]bool{}}
	owner := map[*types.Var]string{} // field -> "pkg.Type"
	for _, u := range units {
		if !strings.Contains(u.pkg.Path(), "/internal/") {
			continue
		}
		for _, name := range u.pkg.Scope().Names() {
			tn, ok := u.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || strings.HasSuffix(m.fset.File(tn.Pos()).Name(), "_test.go") {
				continue
			}
			if !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Policy") && !strings.HasSuffix(name, "Opts") && name != "Params" {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				owner[st.Field(i)] = u.pkg.Name() + "." + name
				census.fields[owner[st.Field(i)]+"."+st.Field(i).Name()] = true
			}
		}
	}

	set := map[string]bool{}
	for _, u := range units {
		for _, file := range u.files {
			for _, decl := range file.Decls {
				own := "" // the receiver's type inside a method
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					own = u.pkg.Name() + "." + recvType(u.info, fd).Name()
				}
				mark := func(f *types.Var) {
					if o, ok := owner[f]; ok && o != own {
						set[o+"."+f.Name()] = true
					}
				}
				// target marks every field along a selector chain.
				var target func(e ast.Expr)
				target = func(e ast.Expr) {
					switch x := ast.Unparen(e).(type) {
					case *ast.SelectorExpr:
						if sel := u.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
							mark(sel.Obj().(*types.Var))
						}
						target(x.X)
					case *ast.IndexExpr:
						target(x.X)
					case *ast.StarExpr:
						target(x.X)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							target(lhs)
						}
					case *ast.IncDecStmt:
						target(x.X)
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							target(x.X)
						}
					case *ast.CompositeLit:
						st, _ := u.info.Types[x].Type.Underlying().(*types.Struct)
						for i, elt := range x.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									if f, ok := u.info.Uses[id].(*types.Var); ok {
										mark(f)
									}
								}
							} else if st != nil {
								mark(st.Field(i))
							}
						}
					}
					return true
				})
			}
		}
	}

	for key := range census.fields {
		if !set[key] {
			census.unset = append(census.unset, key)
		}
	}
	sort.Strings(census.unset)
	return census
}

// seedFile is a source file added to a package for one scan.
type seedFile struct{ name, src string }

// deadModule is the module's parsed source plus the standard library's
// export data, shared by every scan in the test binary.
type deadModule struct {
	fset  *token.FileSet
	pkgs  map[string][]*ast.File // import path -> files
	tests map[string][]*ast.File // import path -> its in-package test files
	paths []string               // import paths, sorted
	std   types.Importer
	err   error
}

var (
	deadOnce sync.Once
	deadMod  *deadModule
)

func loadDeadModule(t *testing.T) *deadModule {
	t.Helper()
	deadOnce.Do(func() { deadMod = parseDeadModule() })
	if deadMod.err != nil {
		t.Fatal(deadMod.err)
	}
	return deadMod
}

func parseDeadModule() *deadModule {
	m := &deadModule{fset: token.NewFileSet(), pkgs: map[string][]*ast.File{}, tests: map[string][]*ast.File{}}
	out, err := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Export,Standard", "./...").Output()
	if err != nil {
		m.err = fmt.Errorf("go list: %v", err)
		return m
	}
	export := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p struct {
			ImportPath, Dir, Export            string
			GoFiles, TestGoFiles, XTestGoFiles []string
			Standard                           bool
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			m.err = fmt.Errorf("go list output: %v", err)
			return m
		}
		if p.Standard {
			export[p.ImportPath] = p.Export
			continue
		}
		// External test packages are parsed for their Example functions,
		// the only test code that counts as a reference; in-package test
		// files are kept apart for the knob census, where tests count.
		for _, set := range []struct {
			into  map[string][]*ast.File
			path  string
			names []string
		}{
			{m.pkgs, p.ImportPath, p.GoFiles},
			{m.pkgs, p.ImportPath + "_test", p.XTestGoFiles},
			{m.tests, p.ImportPath, p.TestGoFiles},
		} {
			for _, name := range set.names {
				f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					m.err = err
					return m
				}
				set.into[set.path] = append(set.into[set.path], f)
			}
		}
	}
	for path := range m.pkgs {
		m.paths = append(m.paths, path)
	}
	sort.Strings(m.paths)
	// Packages that only the tests import are not in the list; ask the
	// toolchain for their export data on first use.
	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
			if err != nil {
				return nil, fmt.Errorf("go list -export %s: %v", path, err)
			}
			file = strings.TrimSpace(string(out))
		}
		return os.Open(file)
	})
	return m
}

// deadScan is one type-check of the module and what it found.
type deadScan struct {
	candidates map[string]bool // every identifier in scope
	findings   []string        // candidates nothing keeps live, sorted
}

// scan type-checks the module, with seeds added to their packages, and
// reports every candidate that no non-test code references.
func (m *deadModule) scan(t *testing.T, seeds map[string][]seedFile) *deadScan {
	t.Helper()
	return m.check(t, seeds).result()
}

// check type-checks the module's non-test code and external test
// packages, with seeds added to their packages (a seed named like one
// of a package's files replaces it).
func (m *deadModule) check(t *testing.T, seeds map[string][]seedFile) *deadChecker {
	t.Helper()
	files := map[string][]*ast.File{}
	for path, fs := range m.pkgs {
		files[path] = fs
	}
	for path, sf := range seeds {
		if _, ok := files[path]; !ok {
			t.Fatalf("seed for unknown package %s", path)
		}
		for _, s := range sf {
			f, err := parser.ParseFile(m.fset, s.name, s.src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			fs := slices.DeleteFunc(slices.Clone(files[path]), func(old *ast.File) bool {
				return filepath.Base(m.fset.File(old.Pos()).Name()) == s.name
			})
			files[path] = append(fs, f)
		}
	}

	c := &deadChecker{m: m, files: files, pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	for _, path := range m.paths {
		if _, err := c.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// deadChecker type-checks module packages on demand, in import order.
type deadChecker struct {
	m     *deadModule
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func (c *deadChecker) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	files, ok := c.files[path]
	if !ok {
		return c.m.std.Import(path)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{Importer: c, Error: func(err error) { errs = append(errs, err) }}
	pkg, _ := conf.Check(path, c.m.fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, errs[0])
	}
	c.pkgs[path], c.infos[path] = pkg, info
	return pkg, nil
}

func (c *deadChecker) result() *deadScan {
	candidates := map[types.Object]bool{}
	for path, pkg := range c.pkgs {
		if !strings.Contains(path, "/internal/") && path != "ssdcheck" {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if name == "_" {
				continue
			}
			obj := pkg.Scope().Lookup(name)
			candidates[obj] = true
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						candidates[named.Method(i)] = true
					}
				}
			}
		}
	}

	live := c.references()
	for fn := range c.interfaceMethods() {
		live[fn] = true
	}
	res := &deadScan{candidates: map[string]bool{}}
	for obj := range candidates {
		key := deadKey(obj)
		res.candidates[key] = true
		if !live[obj] {
			res.findings = append(res.findings, key)
		}
	}
	sort.Strings(res.findings)
	return res
}

// references collects every object that non-test code names, outside
// the object's own declaration. A type named only by its own methods is
// not referenced, nor a function that only calls itself.
func (c *deadChecker) references() map[types.Object]bool {
	live := map[types.Object]bool{}
	for path, info := range c.infos {
		for _, f := range c.files[path] {
			test := strings.HasSuffix(c.m.fset.File(f.Pos()).Name(), "_test.go")
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if test && !strings.HasPrefix(d.Name.Name, "Example") {
						continue
					}
					self := map[types.Object]bool{info.Defs[d.Name]: true}
					if d.Recv != nil {
						self[recvType(info, d)] = true
					}
					markUses(info, d, self, live)
				case *ast.GenDecl:
					if test {
						continue
					}
					for _, spec := range d.Specs {
						self := map[types.Object]bool{}
						switch s := spec.(type) {
						case *ast.TypeSpec:
							self[info.Defs[s.Name]] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								self[info.Defs[n]] = true
							}
						}
						markUses(info, spec, self, live)
					}
				}
			}
		}
	}
	return live
}

// recvType returns the named type a method is declared on.
func recvType(info *types.Info, fd *ast.FuncDecl) *types.TypeName {
	recv := info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return recv.(*types.Named).Origin().Obj()
}

func markUses(info *types.Info, node ast.Node, self, live map[types.Object]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if !self[obj] {
					live[obj] = true
				}
			}
		}
		return true
	})
}

// interfaceMethods returns every method that implements a method of an
// interface declared in the module, in a standard-library package the
// module imports, or written as a literal in module code: such a method
// can be called with no reference that names it.
func (c *deadChecker) interfaceMethods() map[types.Object]bool {
	var ifaces []*types.Interface
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] || it.NumMethods() == 0 || !it.IsMethodSet() {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		seenIface[it] = true
		ifaces = append(ifaces, it)
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, t := range dynamicInterfaces() {
		addIface(t)
	}

	var concrete []types.Type
	seenType := map[string]bool{}
	addConcrete := func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() == nil || c.files[n.Obj().Pkg().Path()] == nil {
			return
		}
		if _, ok := n.Underlying().(*types.Interface); ok || n.TypeParams().Len() != n.TypeArgs().Len() {
			return
		}
		if key := types.TypeString(n, nil); !seenType[key] {
			seenType[key] = true
			concrete = append(concrete, n)
		}
	}

	imported := map[*types.Package]bool{}
	var importAll func(pkgs []*types.Package)
	importAll = func(pkgs []*types.Package) {
		for _, imp := range pkgs {
			if c.files[imp.Path()] == nil && !imported[imp] {
				imported[imp] = true
				importAll(imp.Imports())
			}
		}
	}
	for path, pkg := range c.pkgs {
		importAll(pkg.Imports())
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
				addConcrete(tn.Type())
			}
		}
		for _, tv := range c.infos[path].Types {
			if tv.Type != nil {
				addIface(tv.Type)
				addConcrete(tv.Type)
			}
		}
	}
	for pkg := range imported {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}

	live := map[types.Object]bool{}
	for _, t := range concrete {
		for _, recv := range []types.Type{t, types.NewPointer(t)} {
			ms := types.NewMethodSet(recv)
		iface:
			for _, it := range ifaces {
				for i := 0; i < it.NumMethods(); i++ {
					if m := it.Method(i); ms.Lookup(m.Pkg(), m.Name()) == nil {
						continue iface
					}
				}
				if !types.Implements(recv, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					live[ms.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	return live
}

// dynamicInterfaces returns the method sets the errors package asserts
// to with unnamed interfaces, which export data does not show.
func dynamicInterfaces() []types.Type {
	const src = `package dynamic

type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dynamic.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("dynamic", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	var out []types.Type
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type())
	}
	return out
}

// deadKey names an object as the allowlist does: pkg.Name for a
// package-level identifier, pkg.T.M or pkg.(*T).M for a method.
func deadKey(obj types.Object) string {
	pkg := obj.Pkg().Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if p, ok := recv.Type().(*types.Pointer); ok {
				return fmt.Sprintf("%s.(*%s).%s", pkg, p.Elem().(*types.Named).Obj().Name(), fn.Name())
			}
			return fmt.Sprintf("%s.%s.%s", pkg, recv.Type().(*types.Named).Obj().Name(), fn.Name())
		}
	}
	return pkg + "." + obj.Name()
}

// without returns the findings that base does not have.
func (r *deadScan) without(base *deadScan) []string {
	var out []string
	for _, f := range r.findings {
		if !slices.Contains(base.findings, f) {
			out = append(out, f)
		}
	}
	return out
}

// unlisted returns the findings the allowlist does not name.
func (r *deadScan) unlisted(allow map[string]string) []string {
	var out []string
	for _, f := range r.findings {
		if _, ok := allow[f]; !ok {
			out = append(out, f)
		}
	}
	return out
}

// stale returns, sorted, a message for each allowlist entry that is no
// longer a finding.
func (r *deadScan) stale(allow map[string]string) []string {
	found := map[string]bool{}
	for _, f := range r.findings {
		found[f] = true
	}
	var out []string
	for key := range allow {
		switch {
		case !r.candidates[key]:
			out = append(out, key+" no longer exists")
		case !found[key]:
			out = append(out, key+" is referenced by non-test code")
		}
	}
	sort.Strings(out)
	return out
}
