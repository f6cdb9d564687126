package zmailspec

import (
	"maps"
	"slices"
	"testing"

	"zmail/internal/wire"
)

// TestSpecWireKindsAgreeAtRuntime holds the spec and the wire codec to
// one message vocabulary: build the live AP spec, enumerate the kinds
// its processes actually register to receive, enumerate the codec's
// Kind constants, and require the two to coincide modulo two
// allowlists. An allowlist entry naming a kind that no longer exists
// on its side fails the test too, so the lists cannot go stale.
func TestSpecWireKindsAgreeAtRuntime(t *testing.T) {
	// Spec kinds with no bank-link codec: email travels the SMTP data
	// plane, and resume is documented deviation 3 (freeze recovery).
	specOnly := []string{"email", "resume"}
	// Wire kinds below the AP model: hello is the transport bootstrap,
	// and batchorder/batchreply coalesce the spec's buy and sell
	// exchanges into one round trip (DESIGN decision 15); the model
	// keeps the split messages it was verified with.
	wireOnly := []string{"hello", "batchorder", "batchreply"}

	spec := New(Config{})
	specKinds := map[string]bool{}
	for _, k := range spec.Sys.ReceiveKinds() {
		specKinds[k] = true
	}
	wireKinds := map[string]bool{}
	for _, k := range wire.Kinds() {
		wireKinds[k.String()] = true
	}

	for _, k := range specOnly {
		if !specKinds[k] {
			t.Errorf("specOnly entry %q is stale: the live spec never receives it", k)
		}
		delete(specKinds, k)
	}
	for _, k := range wireOnly {
		if !wireKinds[k] {
			t.Errorf("wireOnly entry %q is stale: the codec defines no such kind", k)
		}
		delete(wireKinds, k)
	}

	got, want := slices.Sorted(maps.Keys(specKinds)), slices.Sorted(maps.Keys(wireKinds))
	if !slices.Equal(got, want) {
		t.Errorf("spec receive kinds %v != wire codec kinds %v (modulo allowlists)", got, want)
	}
}
