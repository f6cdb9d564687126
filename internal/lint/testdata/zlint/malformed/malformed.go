// Package malformed is the directive-hygiene fixture: suppression
// comments that are typo'd or missing their reason must themselves be
// findings, so a bad directive can never silently disable enforcement.
//
// The zlint-pass expectations for this file are asserted explicitly in
// the test (not with want markers, since trailing text on a directive
// line would parse as its reason).
package malformed

type pool struct{ avail int64 }

// BadPassName carries a directive naming a pass that does not exist;
// the typo is reported and the underlying finding is NOT silenced.
func BadPassName(p *pool) {
	//zlint:ignore moneyflw the pool is topped up by the bank on boot
	p.avail++ //want moneyflow
}

// MissingReason names a real pass but gives no justification; also
// reported, also not silenced.
func MissingReason(p *pool) {
	//zlint:ignore moneyflow
	p.avail++ //want moneyflow
}
