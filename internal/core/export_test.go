package core

import "repro/internal/mem"

// SetTestWatch installs fn as the test watch hook and returns the
// function that removes it.
func SetTestWatch(fn func(*mem.Space)) (restore func()) {
	testWatch = fn
	return func() { testWatch = nil }
}
