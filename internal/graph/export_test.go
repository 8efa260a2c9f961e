package graph

import "testing"

// LowerMaxSlots lowers the slot bound for the rest of t, for the tests of
// this directory's external package.
func LowerMaxSlots(t *testing.T, n int) { lowerMaxSlots(t, n) }
