// Package hammer checks the guard discipline of the daemons' shared
// objects at run time. A test hands Run a drive function and one or
// more targets: an object, a table that calls each of its exported read
// methods, and the names of the writer methods the drive exercises.
// Run calls every read from a goroutine of its own while the drive
// runs, so under `go test -race` each read races against every write
// the drive makes. Each table is checked against its type's exported
// method set by reflection first: a method that is neither read nor
// listed as a writer fails the test, so a new accessor cannot escape
// the hammer.
package hammer

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pause is how long a reader sleeps between calls, so a few dozen
// readers leave the drive most of the CPU.
const pause = 20 * time.Microsecond

// A Target is one shared object under the hammer: a call for each of
// its exported read methods, by name, and the names of the methods the
// drive exercises as writers.
type Target struct {
	V       any
	Reads   map[string]func()
	Writers []string
}

// Run checks that every target's reads and writers name its exported
// methods between them, each once, and stops the test if they do not.
// It then gives every read its own goroutine, which calls it over and
// over, and calls drive(0), drive(1), ... until rounds rounds have run
// and every read has returned at least twice; then it stops the
// readers and waits for them.
//
// A reader goroutine synchronizes with the drive only through the
// locks its one method takes. A method that reads shared state without
// its guard therefore never synchronizes with the drive at all, and the
// race detector reports the first write the drive makes to that state
// before the reader's next call, rather than only the writes that
// happen to fall between two of the reader's other lock operations.
func Run(t testing.TB, rounds int, drive func(round int), targets ...Target) {
	t.Helper()
	var reads []func()
	for _, tg := range targets {
		if !covers(t, tg) {
			t.FailNow()
		}
		for _, read := range tg.Reads {
			reads = append(reads, read)
		}
	}
	var stop atomic.Bool
	calls := make([]atomic.Int64, len(reads))
	var wg sync.WaitGroup
	for i, read := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				read()
				calls[i].Add(1)
				time.Sleep(pause)
			}
		}()
	}
	behind := func() bool {
		for i := range calls {
			if calls[i].Load() < 2 {
				return true
			}
		}
		return false
	}
	for round := 0; round < rounds || behind(); round++ {
		drive(round)
	}
	stop.Store(true)
	wg.Wait()
}

// covers reports whether the target's reads and writers together name
// every exported method of its type exactly once, and nothing else,
// failing the test for each gap.
func covers(t testing.TB, tg Target) bool {
	t.Helper()
	typ := reflect.TypeOf(tg.V)
	methods := make(map[string]bool, typ.NumMethod())
	for i := range typ.NumMethod() {
		methods[typ.Method(i).Name] = true
	}
	listed := make(map[string]bool, len(tg.Reads)+len(tg.Writers))
	for name := range tg.Reads {
		listed[name] = true
	}
	ok := true
	for _, name := range tg.Writers {
		if listed[name] {
			t.Errorf("%s.%s is listed twice", typ, name)
			ok = false
		}
		listed[name] = true
	}
	for name := range methods {
		if !listed[name] {
			t.Errorf("%s.%s is neither called by the hammer nor listed as a writer", typ, name)
			ok = false
		}
	}
	for name := range listed {
		if !methods[name] {
			t.Errorf("the hammer lists %s.%s, which is not an exported method", typ, name)
			ok = false
		}
	}
	return ok
}
