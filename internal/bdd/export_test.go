package bdd

import "testing"

// ClampCache caps the computed cache of every manager the test creates.
func ClampCache(t *testing.T, slots int) {
	old := cacheCap
	cacheCap = slots
	t.Cleanup(func() { cacheCap = old })
}
