// Package malformed is the directive-hygiene fixture: suppression
// comments that are typo'd or missing their reason must themselves be
// findings, so a bad directive can never silently disable enforcement.
//
// The zlint-pass expectations for this file are asserted explicitly in
// the test (not with want markers, since trailing text on a directive
// line would parse as its reason).
package malformed

type vault struct{ stash int64 }

// BadPassName carries a directive naming a pass that does not exist;
// the typo is reported and the underlying finding is NOT silenced.
func BadPassName(v *vault) {
	//zlint:ignore walflw the stash is a cache recomputed on boot
	v.stash++ //want walflow
}

// MissingReason names a real pass but gives no justification; also
// reported, also not silenced.
func MissingReason(v *vault) {
	//zlint:ignore walflow
	v.stash++ //want walflow
}
