// Package clean is the lockorder negative fixture: the documented
// discipline, exercised through branches, defers, and sequential
// lock/unlock pairs. The pass must report nothing.
package clean

import "sync"

type demoStripe struct {
	mu    sync.Mutex
	users map[string]int
}

type engine struct {
	freezeMu sync.RWMutex
	mu       sync.Mutex
	stripes  []demoStripe
	frozen   bool
	balance  int
}

// Ordered walks the full hierarchy in the documented order, releasing
// by defer.
func (e *engine) Ordered(s *demoStripe) {
	e.freezeMu.RLock()
	defer e.freezeMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.balance++
}

// Sequential releases a higher rank before touching a lower one the
// second time around; alternatives in branches stay independent.
func (e *engine) Sequential(s *demoStripe, frozen bool) {
	e.freezeMu.RLock()
	if frozen {
		s.mu.Lock()
		s.mu.Unlock()
	} else {
		e.mu.Lock()
		e.mu.Unlock()
	}
	s.mu.Lock()
	s.mu.Unlock()
	e.freezeMu.RUnlock()
}

// Snapshot mirrors ExportState: the cold mutex is released before the
// stripes are taken, so the held set never inverts.
func (e *engine) Snapshot() int {
	e.freezeMu.Lock()
	defer e.freezeMu.Unlock()
	e.mu.Lock()
	total := e.balance
	e.mu.Unlock()
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.Lock()
		total += len(s.users)
		s.mu.Unlock()
	}
	return total
}

// EarlyUnlockBranch mirrors finishFreeze: one arm releases and returns,
// the fallthrough path releases later.
func (e *engine) EarlyUnlockBranch() {
	e.freezeMu.Lock()
	if !e.frozen {
		e.freezeMu.Unlock()
		return
	}
	e.frozen = false
	e.freezeMu.Unlock()
}

// ticket is not a mutex: its method merely happens to be called Lock.
type ticket struct{ n int }

func (t *ticket) Lock() { t.n++ }

type desk struct {
	mu ticket
}

// StampUnderCold calls that Lock on a field named mu while the cold
// mutex is held. Only sync methods are lock operations, so this is
// neither a double acquisition nor a lock that is never released.
func (e *engine) StampUnderCold(d *desk) {
	e.mu.Lock()
	d.mu.Lock()
	e.mu.Unlock()
}
