// Package comma exercises the comma form of the suppression
// directive: one line silencing findings from several passes at once.
package comma

import (
	"sync"

	"zmail/internal/persist"
)

type engine struct{ mu sync.Mutex }

// Jitter takes the cold mutex for good and drops a load error: a
// lockorder and an errdrop finding on the same line, silenced by one
// directive.
//
//zlint:ignore lockorder,errdrop one directive, two passes: a leaked lock and a dropped error are this fixture's point
func Jitter(e *engine, path string) { e.mu.Lock(); persist.LoadJSON(path, nil) }

// Raw is the in-package stripped twin: without the directive both
// passes must fire on the line.
func Raw(e *engine, path string) { e.mu.Lock(); persist.LoadJSON(path, nil) } //want lockorder errdrop
