// Package comma exercises the comma form of the suppression
// directive: one line silencing findings from several passes at once,
// including the flow passes added after the directive syntax shipped.
package comma

import "sync"

type vault struct {
	mu    sync.Mutex
	coins int64
	avail int64
}

// Jitter burns pool e-pennies by an amount read without the vault's
// lock: a moneyflow and a guardflow finding on the same line, silenced
// by one directive.
func Jitter(v *vault) {
	//zlint:ignore moneyflow,guardflow one directive, two passes: an unguarded, unpaired burn is this fixture's point
	v.avail -= v.coins
}

// Raw is the in-package stripped twin: without the directive both
// passes must fire on the line.
func Raw(v *vault) {
	v.avail -= v.coins //want moneyflow guardflow
}
