package stm

import (
	"os"
	"testing"

	"repro/internal/mem"
)

// TestMain arms the shadow-memory sanitizer for every space the package
// tests construct, so the whole STM suite runs with access checking on.
// Byte-identity of sanitized runs (TestObserverPurity in
// internal/harness) guarantees this does not change any result the
// tests assert on.
func TestMain(m *testing.M) {
	mem.SetSanitizeDefault(true)
	os.Exit(m.Run())
}
