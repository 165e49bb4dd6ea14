package fnv1a

import (
	"hash/fnv"
	"testing"
)

// TestMatchesStdlib pins both forms to hash/fnv's 32-bit FNV-1a, and
// incremental folding to hashing the concatenation.
func TestMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "bench@a.example.com", "m|ua1.b.example.com|40000", "\x00\xff"} {
		ref := fnv.New32a()
		ref.Write([]byte(s))
		want := ref.Sum32()
		if got := AddString(Offset, s); got != want {
			t.Errorf("AddString(%q) = %#x, want %#x", s, got, want)
		}
		if got := AddBytes(Offset, []byte(s)); got != want {
			t.Errorf("AddBytes(%q) = %#x, want %#x", s, got, want)
		}
	}
	if a, b := AddString(AddBytes(Offset, []byte("bob")), "@b.example.com"), AddString(Offset, "bob@b.example.com"); a != b {
		t.Errorf("incremental hash %#x != whole-key hash %#x", a, b)
	}
}
