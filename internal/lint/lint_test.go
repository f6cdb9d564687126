package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The fixture convention: a `//want <pass>` marker on a line means
// exactly one diagnostic from that pass is expected there. Fixtures
// live under testdata/<pass>/<case>/ and are loaded through the real
// loader, so they exercise parsing, type-checking, suppression and the
// pass itself end to end.

var (
	loaderOnce sync.Once
	shared     *Loader
	loaderErr  error
)

// sharedLoader caches one Loader per test process: the stdlib source
// importer's work (fmt, io, sync, ...) is paid once instead of per
// subtest.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		shared, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return shared
}

var (
	moduleOnce sync.Once
	modulePkgs []*Package
	moduleErr  error
)

// loadModule type-checks the whole module once per test process, with a
// fresh loader: the shared one accumulates fixture registrations from
// other tests, which must not leak into the module sweep.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	moduleOnce.Do(func() {
		l, err := NewLoader(".")
		if err != nil {
			moduleErr = err
			return
		}
		modulePkgs, moduleErr = l.LoadModule()
	})
	if moduleErr != nil {
		t.Fatalf("load module: %v", moduleErr)
	}
	return modulePkgs
}

// fixturePath maps a testdata-relative name to its loader import path.
func fixturePath(rel string) string {
	return "zmail/internal/lint/testdata/" + rel
}

// loadFixture loads testdata/<rel> as its canonical fixture import
// path.
func loadFixture(t *testing.T, rel string) *Package {
	t.Helper()
	l := sharedLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", rel), fixturePath(rel))
	if err != nil {
		t.Fatalf("load fixture %s: %v", rel, err)
	}
	return pkg
}

// wantMarkers scans a fixture package's files for //want markers.
// Returned keys are "file:line:pass".
func wantMarkers(t *testing.T, pkg *Package) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		fh, err := os.Open(name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		sc := bufio.NewScanner(fh)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			idx := strings.Index(text, "//want ")
			if idx < 0 {
				continue
			}
			for _, pass := range strings.Fields(text[idx+len("//want "):]) {
				want[markerKey(name, line, pass)] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan %s: %v", name, err)
		}
		fh.Close()
	}
	return want
}

func markerKey(file string, line int, pass string) string {
	return filepath.Base(file) + ":" + itoa(line) + ":" + pass
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// checkFixture runs the passes over one fixture and compares findings
// against the //want markers, both directions.
func checkFixture(t *testing.T, rel string, passes []Pass, cfg Config) {
	t.Helper()
	pkg := loadFixture(t, rel)
	want := wantMarkers(t, pkg)
	got := make(map[string]bool)
	for _, d := range Run([]*Package{pkg}, passes, cfg) {
		key := markerKey(d.Pos.Filename, d.Pos.Line, d.Pass)
		if got[key] {
			t.Errorf("duplicate diagnostic at %s: %s", key, d.Msg)
		}
		got[key] = true
		if !want[key] {
			t.Errorf("unexpected diagnostic %s (%s)", key, d.Msg)
		}
	}
	for key := range want {
		if !got[key] {
			t.Errorf("missing expected diagnostic %s", key)
		}
	}
}

// fixtureCfg scopes the path-gated passes to a fixture package. It is
// the exported FixtureConfig, so the tests and `zlint -testdata` run
// with identical policy.
func fixtureCfg(rel string) Config {
	return FixtureConfig(fixturePath(rel))
}

func TestLockOrderFixtures(t *testing.T) {
	passes := []Pass{LockOrder()}
	for _, c := range []string{"lockorder/bad", "lockorder/clean"} {
		t.Run(c, func(t *testing.T) { checkFixture(t, c, passes, fixtureCfg(c)) })
	}
}

func TestErrDropFixtures(t *testing.T) {
	passes := []Pass{ErrDrop()}
	for _, c := range []string{"errdrop/bad", "errdrop/clean", "errdrop/suppressed", "errdrop/unsuppressed"} {
		t.Run(c, func(t *testing.T) { checkFixture(t, c, passes, DefaultConfig()) })
	}
}

// TestCommaDirectiveFixture pins the comma form end to end: one
// directive silences two passes on one line, and the stripped twin in
// the same package proves both passes do fire there.
func TestCommaDirectiveFixture(t *testing.T) {
	rel := "zlint/comma"
	checkFixture(t, rel, []Pass{LockOrder(), ErrDrop()}, fixtureCfg(rel))
}

// TestMalformedDirectives asserts directive hygiene: a typo'd pass name
// or missing reason is itself a finding and does not silence anything.
func TestMalformedDirectives(t *testing.T) {
	rel := "zlint/malformed"
	pkg := loadFixture(t, rel)
	diags := Run([]*Package{pkg}, []Pass{ErrDrop()}, fixtureCfg(rel))

	var zlintCount, errdropCount int
	for _, d := range diags {
		switch d.Pass {
		case "zlint":
			zlintCount++
		case "errdrop":
			errdropCount++
		}
	}
	if zlintCount != 2 {
		t.Errorf("got %d zlint directive findings, want 2 (unknown pass + missing reason): %v", zlintCount, diags)
	}
	if errdropCount != 2 {
		t.Errorf("got %d errdrop findings, want 2 (malformed directives must not suppress): %v", errdropCount, diags)
	}
}

// TestSuppressionDeletionFails is the acceptance check in miniature:
// the suppressed errdrop fixture is clean, and its directive-stripped
// twin (same code, comment deleted) fails with exactly one finding.
func TestSuppressionDeletionFails(t *testing.T) {
	passes := []Pass{ErrDrop()}
	if diags := Run([]*Package{loadFixture(t, "errdrop/suppressed")}, passes, DefaultConfig()); len(diags) != 0 {
		t.Errorf("errdrop/suppressed: suppressed fixture should be clean, got %v", diags)
	}
	if diags := Run([]*Package{loadFixture(t, "errdrop/unsuppressed")}, passes, DefaultConfig()); len(diags) != 1 {
		t.Errorf("errdrop/unsuppressed: stripped twin should fail with 1 finding, got %v", diags)
	}
}

// TestDefaultConfigCoversRoadmapPackages pins the policy: the ledger
// and persistence packages stay scoped.
func TestDefaultConfigCoversRoadmapPackages(t *testing.T) {
	cfg := DefaultConfig()
	if !pathMatches("zmail/internal/isp", cfg.LockOrderPkgs) {
		t.Errorf("lock-order policy must cover internal/isp")
	}
	for _, p := range []string{"zmail/internal/persist", "zmail/internal/wire", "zmail/internal/crypto", "zmail/internal/promtext"} {
		if !pathMatches(p, cfg.ErrDropPkgs) {
			t.Errorf("errdrop policy must cover %s", p)
		}
	}
	// Subpackage and non-prefix behavior.
	if !pathMatches("zmail/internal/isp/sub", cfg.LockOrderPkgs) {
		t.Errorf("prefix match must cover subpackages")
	}
	if pathMatches("zmail/internal/ispx", cfg.LockOrderPkgs) {
		t.Errorf("zmail/internal/ispx must NOT match the zmail/internal/isp prefix")
	}
}
