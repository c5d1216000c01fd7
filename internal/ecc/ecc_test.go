package ecc

import "testing"

func TestOverheadConstants(t *testing.T) {
	if BlockOverheadBits != 64 {
		t.Fatalf("block overhead %d bits, want 64 (an eighth of the payload)", BlockOverheadBits)
	}
}
