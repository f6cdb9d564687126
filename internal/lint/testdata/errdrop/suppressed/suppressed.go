// Package suppressed shows the sanctioned escape hatch: an intentional
// dropped error silenced in place, with the reason as documentation.
package suppressed

import "zmail/internal/persist"

// WarmCache writes a cache the next boot rebuilds when it is missing.
func WarmCache(path string, v any) {
	//zlint:ignore errdrop the cache is advisory: a failed write only costs a rebuild on the next boot
	persist.SaveJSON(path, v)
}
