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
// Kind constants, and require the two to coincide once the spec's
// kinds are mapped to the codec's and two allowlists are set aside. A
// map or allowlist entry naming a kind that no longer exists on its
// side fails the test too, so neither can go stale.
func TestSpecWireKindsAgreeAtRuntime(t *testing.T) {
	// Spec kinds with no bank-link codec: email travels the SMTP data
	// plane, and resume is documented deviation 3 (freeze recovery).
	specOnly := []string{"email", "resume"}
	// Wire kinds below the AP model: hello is the transport bootstrap.
	wireOnly := []string{"hello"}
	// The spec keeps the paper's split buy and sell exchanges it was
	// verified with; the codec carries both sides of the pool trade in
	// one order and one reply (DESIGN decision 15).
	specToWire := map[string]string{
		"buy": "batchorder", "sell": "batchorder",
		"buyreply": "batchreply", "sellreply": "batchreply",
	}

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
	for sk, wk := range specToWire {
		if !specKinds[sk] {
			t.Errorf("specToWire entry %q is stale: the live spec never receives it", sk)
		}
		if !wireKinds[wk] {
			t.Errorf("specToWire entry %q -> %q is stale: the codec defines no such kind", sk, wk)
		}
		if specKinds[sk] {
			delete(specKinds, sk)
			specKinds[wk] = true
		}
	}

	got, want := slices.Sorted(maps.Keys(specKinds)), slices.Sorted(maps.Keys(wireKinds))
	if !slices.Equal(got, want) {
		t.Errorf("spec receive kinds %v != wire codec kinds %v (modulo the map and allowlists)", got, want)
	}
}
