package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSymbolKey pins the mapping from linked symbol names to declared
// functions, one shape each.
func TestSymbolKey(t *testing.T) {
	const mod = "example.com/m"
	for _, tc := range []struct {
		sym, want string // want "" means the symbol maps to nothing
	}{
		{"example.com/m/lib.F", "lib.F"},
		{"example.com/m.Root", ".Root"},
		{"example.com/m/lib.(*P).Live", "lib.P.Live"},
		{"example.com/m/lib.V.Live", "lib.V.Live"},
		{"example.com/m/lib.V.Live-fm", "lib.V.Live"},
		{"example.com/m/lib.(*G[go.shape.int]).Live", "lib.G.Live"},
		{"example.com/m/lib.G[go.shape.struct { X int; Y []string }].ValLive", "lib.G.ValLive"},
		{"example.com/m/lib.(*G[go.shape.map[string][]example.com/m/lib.T]).Live", "lib.G.Live"},
		{"example.com/m/lib.Map[go.shape.int]", "lib.Map"},
		{"example.com/m/lib.F.func1", "lib.F"},
		{"example.com/m/lib.F.func1.2", "lib.F"},
		{"example.com/m/lib.F.gowrap1", "lib.F"},
		{"example.com/m/lib.F.deferwrap2", "lib.F"},
		{"example.com/m/lib.(*P).Live.func3", "lib.P.Live"},
		{"example.com/m/lib.V.Live.func1", "lib.V.Live"},
		{"example.com/m/lib.Map[go.shape.int].func1", "lib.Map"},
		{"example.com/m/a/b.T.M", "a/b.T.M"},
		{"example.com/m/lib.Asm.abi0", "lib.Asm"},
		// Not a function of the module.
		{"example.com/mother/x.F", ""},
		{"example.com/m/lib..dict.Map[int]", ""},
		{"type:.eq.example.com/m/lib.T", ""},
		{"fmt.Println", ""},
	} {
		got, ok := symbolKey(tc.sym, mod)
		if !ok {
			got = ""
		}
		if got != tc.want {
			t.Errorf("symbolKey(%q) = %q, want %q", tc.sym, got, tc.want)
		}
	}
}

// TestCensusFixture runs the whole census over a module holding a live
// and a dead function of every shape: pointer and value receivers,
// a value method linked only through its pointer wrapper, generic
// receivers and functions, closures, two types sharing a method name,
// a main package's own functions, a file behind a build tag, and
// package vars holding a function (read, and never read: a function of
// the package or of another, a literal, a method expression, a nil of
// a function type) beside one holding a number. The
// census must report exactly the dead ones: a mapping bug that reads a
// live function as dead, or a dead one as live, changes the set.
func TestCensusFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the fixture module")
	}
	dead, err := census(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range dead {
		got = append(got, f.Key)
		if !strings.HasPrefix(f.Pos, "lib/lib.go:") && !strings.HasPrefix(f.Pos, "main.go:") {
			t.Errorf("%s at %s, want a position relative to the module root", f.Key, f.Pos)
		}
	}
	want := []string{
		".flavorHook",
		".unusedHelper",
		"lib.B.Close",
		"lib.DeadExpr",
		"lib.DeadHook",
		"lib.DeadLit",
		"lib.DeadTyped",
		"lib.DeadWithClosure",
		"lib.G.Dead",
		"lib.P.Dead",
		"lib.Unused",
		"lib.V.Dead",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("census reported\n\t%v\nwant\n\t%v", got, want)
	}
}

// TestBuildConstraintsHonoured checks that a file excluded by a build
// tag is not read: internal/online's race_on.go holds the race
// detector's variant of RaceEnabled and must not be listed beside
// race_off.go.
func TestBuildConstraintsHonoured(t *testing.T) {
	pkgs, err := listPackages(filepath.Join("..", "..", "internal", "online"))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, p := range pkgs {
		if strings.HasSuffix(p.ImportPath, "/internal/online") {
			files = p.GoFiles
		}
	}
	has := func(name string) bool {
		for _, f := range files {
			if f == name {
				return true
			}
		}
		return false
	}
	if !has("race_off.go") || has("race_on.go") {
		t.Errorf("internal/online files = %v, want race_off.go and not race_on.go", files)
	}
}

func TestReadAllowNeedsReason(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "allow.txt")
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("# comment\n\ninternal/x.F kept for a reason\n")
	allow, fields, err := readAllow(path)
	if err != nil || allow["internal/x.F"] != "kept for a reason" || len(fields) != 0 {
		t.Fatalf("readAllow = %v, %v, %v", allow, fields, err)
	}
	write("internal/x.F a function\nfield internal/x.Config.F a field of the same key\n")
	allow, fields, err = readAllow(path)
	if err != nil || allow["internal/x.F"] != "a function" || fields["internal/x.Config.F"] != "a field of the same key" || len(allow)+len(fields) != 2 {
		t.Fatalf("readAllow = %v, %v, %v", allow, fields, err)
	}
	write("internal/x.F\n")
	if _, _, err := readAllow(path); err == nil {
		t.Error("a line without a reason was accepted")
	}
	write("field internal/x.Config.F\n")
	if _, _, err := readAllow(path); err == nil {
		t.Error("a field line without a reason was accepted")
	}
	write("internal/x.F one\ninternal/x.F two\n")
	if _, _, err := readAllow(path); err == nil {
		t.Error("a function listed twice was accepted")
	}
}

func TestReportFailsOnUnlistedAndStale(t *testing.T) {
	dead := []fn{{Key: "internal/x.F", Pos: "internal/x/x.go:3", Lines: 2}}
	var b strings.Builder
	if !report(&b, dead, map[string]string{"internal/x.F": "reason"}) {
		t.Errorf("allowlisted census failed:\n%s", b.String())
	}
	b.Reset()
	if report(&b, dead, map[string]string{}) || !strings.Contains(b.String(), "unreachable: internal/x.F") {
		t.Errorf("unlisted function passed:\n%s", b.String())
	}
	b.Reset()
	if report(&b, nil, map[string]string{"internal/x.F": "reason"}) || !strings.Contains(b.String(), "stale allowlist line: internal/x.F") {
		t.Errorf("stale allowlist line passed:\n%s", b.String())
	}
}

// TestFieldCensusFixture runs the field census over the fixture module:
// conf.Config has a field set in each way the census counts, through an
// alias, an embedding struct and another type's method among them, and
// two fields set only where the census does not look: the type's own
// method and a test file. Exactly those two must be reported, and the
// census must fail until both are allowlisted.
func TestFieldCensusFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the fixture module's export data")
	}
	all, unset, structs, err := fieldCensus(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 || structs != 2 {
		t.Errorf("census found %d fields in %d structs, want 10 in 2: %v", len(all), structs, all)
	}
	var got []string
	for _, f := range unset {
		got = append(got, f.Key)
		if !strings.HasPrefix(f.Pos, "internal/conf/conf.go:") {
			t.Errorf("%s at %s, want a position relative to the module root", f.Key, f.Pos)
		}
	}
	want := []string{"internal/conf.Config.TestOnly", "internal/conf.Config.Unset"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unset fields\n\t%v\nwant\n\t%v", got, want)
	}
	var b strings.Builder
	if reportFields(&b, all, unset, structs, map[string]string{}) || !strings.Contains(b.String(), "unset field: internal/conf.Config.Unset") {
		t.Errorf("an unset field passed:\n%s", b.String())
	}
	b.Reset()
	allow := map[string]string{want[0]: "reason", want[1]: "reason"}
	if !reportFields(&b, all, unset, structs, allow) {
		t.Errorf("allowlisted census failed:\n%s", b.String())
	}
	b.Reset()
	allow["internal/conf.Config.Keyed"] = "set, so stale"
	allow["internal/conf.Config.Gone"] = "not declared, so stale"
	if reportFields(&b, all, unset, structs, allow) ||
		!strings.Contains(b.String(), "stale allowlist line: field internal/conf.Config.Keyed is set") ||
		!strings.Contains(b.String(), "stale allowlist line: field internal/conf.Config.Gone is no longer declared") {
		t.Errorf("stale field lines passed:\n%s", b.String())
	}
}
