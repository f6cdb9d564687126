package lint

import (
	"go/ast"
	"strings"
)

// LockOrder returns the lock-hierarchy pass for the striped ledger
// engine. internal/isp's documented discipline is
//
//	freezeMu → stripe locks (ascending index) → cold mu
//
// and every deadlock found since the ledger was sharded has been a
// violation of it. The pass is a predicate over the shared must-hold
// lockset (lockset.go) and reports:
//
//   - acquiring a lower-ranked lock while a higher-ranked one is
//     provably held (an inversion: another goroutine running the
//     documented order can deadlock against this path);
//   - acquiring a rank already provably held (self-deadlock for the
//     mutexes; for stripes, two raw stripe locks held at once must go
//     through lockTwoStripes, which orders by index);
//   - a function that acquires a rank and never releases it, by defer
//     or by call, anywhere in its body.
//
// Deferred unlocks count as releases but keep the lock held for
// ordering purposes until the function returns, matching runtime
// behavior. The stripe helpers themselves (stripeHelpers) are trusted.
func LockOrder() Pass {
	return Pass{
		Name: "lockorder",
		Doc:  "freeze → stripes → cold lock order and Lock/Unlock balance in internal/isp",
		Run:  runLockOrder,
	}
}

// Lock ranks, low to high. Acquisitions must be non-decreasing —
// strictly increasing, since re-acquiring a held rank is also flagged.
const (
	rankFreeze = iota // freezeMu (RWMutex snapshot gate)
	rankStripe        // per-user account stripes
	rankCold          // the cold-state mutex (pool, handshakes, outbox)
	numRanks
)

var rankNames = [numRanks]string{"freezeMu", "stripe lock", "cold mu"}

// lockRank ranks a lock key: any freezeMu field is the freeze gate, a
// mu field on a type named like a stripe is a stripe lock, and any
// other mu is the cold mutex.
func lockRank(key string) (int, bool) {
	dot := strings.LastIndexByte(key, '.')
	owner, field := key[:dot], key[dot+1:]
	owner = owner[strings.LastIndexByte(owner, '.')+1:]
	switch {
	case field == "freezeMu":
		return rankFreeze, true
	case field != "mu":
		return 0, false
	case strings.Contains(strings.ToLower(owner), "stripe"):
		return rankStripe, true
	}
	return rankCold, true
}

func runLockOrder(u *Unit) []Diagnostic {
	if !pathMatches(u.Pkg.ImportPath, u.Cfg.LockOrderPkgs) {
		return nil
	}
	var out []Diagnostic
	for _, fu := range u.flowUnits() {
		if fu.fn != nil && stripeHelpers[fu.fn.Name()] {
			continue
		}
		for _, h := range u.lockset(fu.body) {
			s := h.held
			for _, op := range h.ops {
				if r, ok := lockRank(op.key); ok && op.acquire {
					out = append(out, checkRank(u, s, op, r)...)
				}
				s = s.apply([]lockOp{op})
			}
		}
		if fu.fn != nil {
			out = append(out, checkReleased(u, fu)...)
		}
	}
	return out
}

// checkRank reports an acquisition of rank r while a lock of rank r or
// higher is provably held, naming the lowest such rank.
func checkRank(u *Unit, s gfState, op lockOp, r int) []Diagnostic {
	held := numRanks
	for key := range s {
		if hr, ok := lockRank(key); ok && s.held(key) && hr >= r && hr < held {
			held = hr
		}
	}
	what := "inverts the freeze → stripes → cold order"
	switch {
	case held == numRanks:
		return nil
	case held == r && r == rankStripe:
		what = "is already held; two stripes must be taken via lockTwoStripes (ascending index)"
	case held == r:
		what = "is already held (self-deadlock, or unordered double acquisition)"
	}
	return []Diagnostic{u.diag("lockorder", op.pos, "acquires %s while the %s %s", rankNames[r], rankNames[held], what)}
}

// checkReleased reports each rank a function acquires anywhere in its
// body, literals included, but never releases, immediately or by defer.
func checkReleased(u *Unit, fu *flowUnit) []Diagnostic {
	var acquired, released [numRanks]int
	ast.Inspect(fu.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, ok := classifyLockCall(u, call); ok {
				if r, ok := lockRank(op.key); ok && op.acquire {
					acquired[r]++
				} else if ok {
					released[r]++
				}
			}
		}
		return true
	})
	var out []Diagnostic
	for r := range numRanks {
		if acquired[r] > 0 && released[r] == 0 {
			out = append(out, u.diag("lockorder", fu.pos,
				"%s acquires the %s but never releases it (no Unlock or defer on any path)",
				fu.fn.Name(), rankNames[r]))
		}
	}
	return out
}
