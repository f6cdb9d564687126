// Package malformed is the directive-hygiene fixture: suppression
// comments that are typo'd or missing their reason must themselves be
// findings, so a bad directive can never silently disable enforcement.
//
// The zlint-pass expectations for this file are asserted explicitly in
// the test (not with want markers, since trailing text on a directive
// line would parse as its reason).
package malformed

import "zmail/internal/persist"

// BadPassName carries a directive naming a pass that does not exist;
// the typo is reported and the underlying finding is NOT silenced.
func BadPassName(path string) {
	//zlint:ignore errdorp the cache is rebuilt on boot
	persist.LoadJSON(path, nil) //want errdrop
}

// MissingReason names a real pass but gives no justification; also
// reported, also not silenced.
func MissingReason(path string) {
	//zlint:ignore errdrop
	persist.LoadJSON(path, nil) //want errdrop
}
