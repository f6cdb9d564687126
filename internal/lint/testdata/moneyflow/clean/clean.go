// Package clean is the moneyflow negative fixture: every function
// conserves e-pennies on every path, so the pass must stay silent.
package clean

import "errors"

var errInsufficient = errors.New("insufficient")

type ledger struct {
	balance []int64
	credit  []int64
	avail   int64
}

// Transfer pairs the debit with an equal credit on its single path.
func Transfer(l *ledger, from, to int) {
	l.balance[from]--
	l.credit[to]++
}

// Escrow is amount-symmetric: the failure path refunds the exact
// debit, the success path moves it into a balance.
func Escrow(l *ledger, amt int64, fail bool) bool {
	l.avail -= amt
	if fail {
		l.avail += amt
		return false
	}
	l.balance[0] += amt
	return true
}

// debit is the error-correlated helper: its ok outcome carries the -1,
// its error outcome carries nothing.
func debit(l *ledger) error {
	if l.avail < 1 {
		return errInsufficient
	}
	l.avail--
	return nil
}

// Send only credits after debit succeeded; the err-gated summary keeps
// the two outcomes from cross-contaminating.
func Send(l *ledger, to int) error {
	if err := debit(l); err != nil {
		return err
	}
	l.credit[to]++
	return nil
}

// Settle is balanced per iteration, so the loop state converges to a
// zero net delta instead of widening.
func Settle(l *ledger, n int) {
	for i := 0; i < n; i++ {
		l.avail--
		l.credit[i]++
	}
}

// debitN debits its parameter: at each call the amount is the argument.
func debitN(l *ledger, n int64) {
	l.avail -= n
}

// SendOne and SendMany pair debitN's n with a credit of what they
// passed, a literal and a variable.
func SendOne(l *ledger, to int) {
	debitN(l, 1)
	l.credit[to]++
}

func SendMany(l *ledger, to int, k int64) {
	debitN(l, k)
	l.credit[to] += k
}

// blessedMint is on the fixture bless-list (Config.MintFuncs): the
// sanctioned point where e-pennies enter the economy.
func blessedMint(l *ledger) {
	l.avail += 100
}

// Reset is a direct assignment, which is initialization, not flow;
// ledger-field encapsulation is ledgerguard's concern.
func Reset(l *ledger) {
	l.avail = 0
}

// Refund unwinds a chain of holds recursively, each level paying back
// what it took. The recursive call reads as "nothing happens", so the
// function is balanced rather than unprovable.
func Refund(l *ledger, n int) {
	if n == 0 {
		return
	}
	l.avail--
	Refund(l, n-1)
	l.avail++
}
