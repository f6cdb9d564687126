// Package unsuppressed is the directive-stripped twin of the
// suppressed fixture: same code, comment deleted, finding back.
package unsuppressed

import "zmail/internal/persist"

// WarmCache writes a cache the next boot rebuilds when it is missing.
func WarmCache(path string, v any) {
	persist.SaveJSON(path, v) //want errdrop
}
