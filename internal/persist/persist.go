// Package persist makes the Zmail ledgers durable: a segmented
// write-ahead log (wal.go) whose snapshots are atomic JSON files —
// write to a temp file in the same directory, fsync, rename, so a crash
// mid-save leaves the previous snapshot intact — and the periodic
// checkpoint timer (checkpoint.go).
package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// ErrNotExist reports a missing state file on load.
var ErrNotExist = errors.New("persist: state file does not exist")

// SaveJSON atomically writes v as indented JSON to path.
func SaveJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("persist: marshal: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("persist: temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("persist: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("persist: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("persist: rename: %w", err)
	}
	return nil
}

// LoadJSON reads path into v. A missing file returns ErrNotExist so
// callers can distinguish "fresh start" from corruption.
func LoadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		return fmt.Errorf("persist: read: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("persist: parse %s: %w", path, err)
	}
	return nil
}
