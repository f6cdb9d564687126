package isp

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"zmail/internal/mail"
	"zmail/internal/metrics"
	"zmail/internal/wire"
)

// Lock ranks, in the order every path takes them (see the package
// doc): freezeMu, then stripe locks by ascending index, then mu.
const (
	rankFreeze = iota
	rankStripe
	rankCold
)

// rankedLock is one of an engine's ranked locks, seen from a test: it
// can be held, released, and probed without blocking.
type rankedLock struct {
	name      string
	rank, idx int // idx orders the stripes
	lock      func()
	unlock    func()
	try       func() bool
}

// free reports whether nobody holds l, leaving it free.
func (l rankedLock) free() bool {
	if !l.try() {
		return false
	}
	l.unlock()
	return true
}

// engineLocks lists e's ranked locks in rank order: freezeMu (for
// write), every stripe, mu.
func engineLocks(e *Engine) []rankedLock {
	locks := []rankedLock{{name: "freezeMu", rank: rankFreeze,
		lock: e.freezeMu.Lock, unlock: e.freezeMu.Unlock, try: e.freezeMu.TryLock}}
	for i := range e.stripes {
		mu := &e.stripes[i].mu
		locks = append(locks, rankedLock{name: fmt.Sprintf("stripe %d", i), rank: rankStripe, idx: i,
			lock: mu.Lock, unlock: mu.Unlock, try: mu.TryLock})
	}
	return append(locks, rankedLock{name: "mu", rank: rankCold,
		lock: e.mu.Lock, unlock: e.mu.Unlock, try: e.mu.TryLock})
}

// ranksAfter reports whether the lock order puts l after h.
func ranksAfter(l, h rankedLock) bool {
	return l.rank > h.rank || (l.rank == rankStripe && h.rank == rankStripe && l.idx > h.idx)
}

// heldLocks names the ranked locks of e that are not free.
func heldLocks(e *Engine) []string {
	var held []string
	for _, l := range engineLocks(e) {
		if !l.free() {
			held = append(held, l.name)
		}
	}
	return held
}

// goid returns the calling goroutine's id, read from the header of its
// stack trace ("goroutine 12 [running]:").
func goid() int64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		panic("unexpected stack header: " + strings.Join(f, " "))
	}
	return id
}

// parkedOnLock reports whether goroutine id is blocked acquiring a
// sync.Mutex or sync.RWMutex: its header in a dump of every stack
// carries the wait reason ("goroutine 12 [sync.Mutex.Lock]:").
func parkedOnLock(id int64, buf []byte) bool {
	dump := string(buf[:runtime.Stack(buf, true)])
	head := fmt.Sprintf("goroutine %d [", id)
	i := strings.Index(dump, head)
	if i < 0 {
		return false
	}
	state := dump[i+len(head):]
	for _, reason := range []string{"sync.Mutex.Lock", "sync.RWMutex.RLock", "sync.RWMutex.Lock"} {
		if strings.HasPrefix(state, reason) {
			return true
		}
	}
	return false
}

// A rankRow is one way into the engine that takes more than one rank:
// an exported method (the name before any "/"), or a freeze timer
// (unexported names). start builds an engine and returns the call;
// freeze, stripes and cold say which ranks the call takes, stripes by
// the users whose stripes it takes.
type rankRow struct {
	name         string
	freeze, cold bool
	stripes      []string
	start        func(t *testing.T) (*Engine, func() error)
}

// oneRank lists the exported Engine methods that take at most one rank
// — none, one lock, or stripes one at a time — with what they take.
var oneRank = []string{
	"Avail",           // mu
	"Checkpoint",      // none; past 4 MiB of log it compacts, as CompactWAL does
	"Clock",           // none
	"CloseWAL",        // none
	"Contention",      // none
	"Credit",          // none
	"Deposit",         // one stripe
	"Domain",          // none
	"EndOfDay",        // stripes, one at a time
	"FlushQueue",      // none on the caller; the drain commits through SubmitSync
	"FormatStatement", // one stripe
	"Frozen",          // freezeMu
	"Index",           // none
	"PoolBand",        // none
	"QueueDepth",      // none
	"QueueStats",      // none
	"SetCheat",        // none
	"SetLimit",        // one stripe
	"StartQueue",      // none
	"Statement",       // one stripe
	"Stats",           // none
	"StopQueue",       // none on the caller
	"Stripes",         // none
	"Tick",            // mu
	"User",            // one stripe
	"Users",           // stripes, one at a time
	"WALAttached",     // none
	"WALErrors",       // none
	"Withdraw",        // one stripe
}

// rankEngine is a test engine with alice and bob registered on two
// different stripes, neither of them the stripe of dave, whom the
// RegisterUser row registers.
func rankEngine(t *testing.T) *Engine {
	t.Helper()
	e, _, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 100, 10)
	mustRegister(t, e, "bob", 100, 10)
	if a, b, d := e.stripeFor("alice"), e.stripeFor("bob"), e.stripeFor("dave"); a == b || a == d || b == d {
		t.Fatal("alice, bob and dave share a stripe")
	}
	t.Cleanup(func() { _ = e.CloseWAL() })
	return e
}

func rankRows() []rankRow {
	msg := func(from, to string) *mail.Message { return mail.NewMessage(addr(from), addr(to), "s", "b") }
	send := func(e *Engine, from, to string) error {
		_, err := e.SubmitSync(msg(from, to))
		return err
	}
	on := func(call func(e *Engine) error) func(*testing.T) (*Engine, func() error) {
		return func(t *testing.T) (*Engine, func() error) {
			e := rankEngine(t)
			return e, func() error { return call(e) }
		}
	}
	frozen := func(call func(e *Engine) error) func(*testing.T) (*Engine, func() error) {
		return func(t *testing.T) (*Engine, func() error) {
			e := rankEngine(t)
			e.ForceSnapshot()
			return e, func() error { return call(e) }
		}
	}
	both := []string{"alice", "bob"}
	alice := []string{"alice"}
	return []rankRow{
		{name: "RegisterUser", freeze: true, stripes: []string{"dave"}, cold: true,
			start: on(func(e *Engine) error { return e.RegisterUser("dave", 0, 1, 0) })},
		{name: "SubmitSync/local", freeze: true, stripes: both,
			start: on(func(e *Engine) error { return send(e, "alice@a.example", "bob@a.example") })},
		{name: "SubmitSync/paid", freeze: true, stripes: alice,
			start: on(func(e *Engine) error { return send(e, "alice@a.example", "x@b.example") })},
		{name: "SubmitSync/frozen", freeze: true, stripes: alice, cold: true,
			start: frozen(func(e *Engine) error { return send(e, "alice@a.example", "x@b.example") })},
		{name: "Submit", freeze: true, stripes: both,
			start: on(func(e *Engine) error {
				_, err := e.Submit(msg("alice@a.example", "bob@a.example"))
				return err
			})},
		{name: "ReceiveRemote", freeze: true, stripes: both,
			start: on(func(e *Engine) error {
				m := msg("x@b.example", "alice@a.example")
				m.Rcpts = []mail.Address{m.To, addr("bob@a.example")}
				return e.ReceiveRemote("b.example", m)
			})},
		{name: "BuyEPennies", freeze: true, stripes: alice, cold: true,
			start: on(func(e *Engine) error { return e.BuyEPennies("alice", 5) })},
		{name: "SellEPennies", freeze: true, stripes: alice, cold: true,
			start: on(func(e *Engine) error { return e.SellEPennies("alice", 5) })},
		{name: "HandleBank/request", freeze: true, cold: true,
			start: on(func(e *Engine) error {
				return e.HandleBank(&wire.Envelope{Kind: wire.KindRequest, From: -1,
					Payload: (&wire.Request{Seq: 0}).MarshalBinary()})
			})},
		{name: "ForceSnapshot", freeze: true, cold: true,
			start: on(func(e *Engine) error { e.ForceSnapshot(); return nil })},
		{name: "TotalEPennies", freeze: true, stripes: both, cold: true,
			start: on(func(e *Engine) error { e.TotalEPennies(); return nil })},
		{name: "ExportState", freeze: true, stripes: both, cold: true,
			start: on(func(e *Engine) error { e.ExportState(); return nil })},
		{name: "Collect", freeze: true, cold: true,
			start: on(func(e *Engine) error { e.Collect(metrics.NewRegistry()); return nil })},
		{name: "AttachWAL", freeze: true, stripes: alice, cold: true,
			start: func(t *testing.T) (*Engine, func() error) {
				e, dir := rankEngine(t), t.TempDir()
				return e, func() error { return e.AttachWAL(dir) }
			}},
		{name: "CompactWAL", freeze: true, stripes: alice, cold: true,
			start: func(t *testing.T) (*Engine, func() error) {
				e := rankEngine(t)
				if err := e.AttachWAL(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				return e, e.CompactWAL
			}},
		{name: "RecoverWAL", freeze: true, stripes: both, cold: true,
			start: func(t *testing.T) (*Engine, func() error) {
				seed, dir := rankEngine(t), t.TempDir()
				if err := seed.AttachWAL(dir); err != nil {
					t.Fatal(err)
				}
				if err := seed.CloseWAL(); err != nil {
					t.Fatal(err)
				}
				e, _, _ := newEngine(t, 0, nil, nil)
				t.Cleanup(func() { _ = e.CloseWAL() })
				return e, func() error { return e.RecoverWAL(dir) }
			}},
		{name: "finishFreeze", freeze: true, cold: true,
			start: frozen(func(e *Engine) error { e.finishFreeze(0, 0); return nil })},
		{name: "thaw", freeze: true, stripes: alice, cold: true,
			start: frozen(func(e *Engine) error {
				if err := send(e, "alice@a.example", "x@b.example"); err != nil {
					return err
				}
				e.thaw() // drains the buffered send
				return nil
			})},
	}
}

// TestLockRankTableCoversEngine: every exported Engine method is a row
// of the rank table or listed in oneRank, once, so a new method cannot
// skip the rank test.
func TestLockRankTableCoversEngine(t *testing.T) {
	typ := reflect.TypeOf(&Engine{})
	listed := map[string]bool{}
	for _, name := range oneRank {
		if listed[name] {
			t.Errorf("oneRank lists %s twice", name)
		}
		listed[name] = true
	}
	for _, row := range rankRows() {
		name, _, _ := strings.Cut(row.name, "/")
		if _, ok := typ.MethodByName(name); !ok {
			if first := row.name[0]; first >= 'A' && first <= 'Z' {
				t.Errorf("the rank table lists %s, which is not an exported Engine method", row.name)
			}
			continue
		}
		if slices.Contains(oneRank, name) {
			t.Errorf("%s is both a rank-table row and in oneRank", name)
		}
		listed[name] = true
	}
	for i := range typ.NumMethod() {
		if name := typ.Method(i).Name; !listed[name] {
			t.Errorf("Engine.%s is neither a rank-table row nor in oneRank", name)
		}
	}
	for _, name := range oneRank {
		if _, ok := typ.MethodByName(name); !ok {
			t.Errorf("oneRank lists %s, which is not an exported Engine method", name)
		}
	}
}

// TestLockRanks checks the engine's lock order at run time. For each
// row of the rank table and each rank its call takes, the test holds
// that rank's lock (each of the call's stripes in turn), runs the call
// on a goroutine until it blocks on the held lock, and then requires
// every lock ranked after the held one to be free: a call that takes a
// lock out of order is caught holding it. After the held lock is
// released the call must return holding nothing.
func TestLockRanks(t *testing.T) {
	buf := make([]byte, 1<<20)
	for _, row := range rankRows() {
		t.Run(row.name, func(t *testing.T) {
			probe, _ := row.start(t)
			var holds []string
			for _, l := range engineLocks(probe) {
				switch l.rank {
				case rankFreeze:
					if row.freeze {
						holds = append(holds, l.name)
					}
				case rankStripe:
					if slices.ContainsFunc(row.stripes, func(u string) bool { return probe.stripeFor(u).idx == l.idx }) {
						holds = append(holds, l.name)
					}
				case rankCold:
					if row.cold {
						holds = append(holds, l.name)
					}
				}
			}
			for _, held := range holds {
				e, call := row.start(t)
				checkRank(t, row.name, e, held, call, buf)
			}
		})
	}
}

// checkRank runs one case of TestLockRanks: it holds e's lock named
// held while call runs.
func checkRank(t *testing.T, name string, e *Engine, held string, call func() error, buf []byte) {
	t.Helper()
	locks := engineLocks(e)
	h := locks[slices.IndexFunc(locks, func(l rankedLock) bool { return l.name == held })]
	h.lock()
	ids, done := make(chan int64, 1), make(chan error, 1)
	go func() {
		ids <- goid()
		done <- call()
	}()
	id := <-ids
	deadline := time.Now().Add(5 * time.Second)
	for !parkedOnLock(id, buf) {
		select {
		case err := <-done:
			h.unlock()
			t.Fatalf("%s returned (err %v) without waiting for the held %s: the row is stale", name, err, held)
		default:
		}
		if time.Now().After(deadline) {
			h.unlock()
			t.Fatalf("%s did not block on the held %s within 5s", name, held)
		}
		time.Sleep(50 * time.Microsecond)
	}
	for _, l := range locks {
		if ranksAfter(l, h) && !l.free() {
			t.Errorf("%s waits for %s while it holds %s, which ranks after it", name, held, l.name)
		}
	}
	h.unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked 5s after %s was released", name, held)
	}
	if held := heldLocks(e); len(held) > 0 {
		t.Errorf("%s returned holding %v", name, held)
	}
}
