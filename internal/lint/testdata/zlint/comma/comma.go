// Package comma exercises the comma form of the suppression
// directive: one line silencing findings from several passes at once,
// including the flow passes added after the directive syntax shipped.
package comma

import "time"

type Engine struct {
	avail int64
}

// Jitter burns unlogged pool e-pennies: a moneyflow and a walflow
// finding on the same line, silenced by one directive.
func Jitter(p *Engine) {
	//zlint:ignore moneyflow,walflow one directive, two passes: an unlogged clock-funded burn is this fixture's point
	p.avail -= time.Now().UnixNano()
}

// Raw is the in-package stripped twin: without the directive both
// passes must fire on the line.
func Raw(p *Engine) {
	p.avail -= time.Now().UnixNano() //want moneyflow walflow
}
