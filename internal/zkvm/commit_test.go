package zkvm

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"testing"
)

// ctrStream is the salt PRF written the textbook way: the stdlib's
// AES-CTR keystream under the seed, starting at the counter block
// (label || 0^7 || big-endian first).
func ctrStream(seed *[32]byte, label byte, first uint64, blocks int) []byte {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic(err)
	}
	iv := make([]byte, aes.BlockSize)
	iv[0] = label
	binary.BigEndian.PutUint64(iv[8:], first)
	out := make([]byte, blocks*saltBytes)
	cipher.NewCTR(block, iv).XORKeyStream(out, out)
	return out
}

// TestSaltsAreAESCTR pins the construction: deriveSalt(label, i) — what
// an opening carries — is block i of the AES-CTR keystream of its
// tree, from any starting index.
func TestSaltsAreAESCTR(t *testing.T) {
	seed := &[32]byte{1, 2, 3, 31: 0xfe}
	salts := newSalter(seed)
	for _, first := range []int{0, 1, 1023, 1024, 397_546, 1<<32 - 2} {
		want := ctrStream(seed, treeMem, uint64(first), 5)
		for j := 0; j < 5; j++ {
			got := salts.deriveSalt(treeMem, first+j)
			if !bytes.Equal(got[:], want[j*saltBytes:(j+1)*saltBytes]) {
				t.Fatalf("deriveSalt(%d) is not keystream block %d from %d", first+j, j, first)
			}
		}
	}
}

// TestTableSaltsMatchDeriveSalt: the salt every leaf is committed
// under — a table's one-pass keystream, read from a recycled slab — is
// deriveSalt at the leaf's index, the salt its opening carries, across
// the blocks of a table whose last block and last leaf are partial.
func TestTableSaltsMatchDeriveSalt(t *testing.T) {
	seed := &[32]byte{5, 31: 0x77}
	putSaltSlab(bytes.Repeat([]byte{0xee}, 64<<10)) // a dirty slab for the table to pick up
	tab := memTable(newSalter(seed), make([]MemEntry, leafRecords*(2*1024+77)-1))
	if tab.leaves() <= 2*1024 {
		t.Fatalf("%d leaves is not a multi-block table", tab.leaves())
	}
	for j := 0; j < tab.leaves(); j++ {
		want := tab.salts.deriveSalt(tab.label, j)
		if got := tab.keys[saltBytes*j:][:saltBytes]; !bytes.Equal(got, want[:]) {
			t.Fatalf("leaf %d is committed under salt %x, its opening carries %x", j, got, want)
		}
	}
}

// TestSaltDomains checks that no two committed leaves share a salt
// input: salts differ across tree labels, across the derived sub-seeds
// of a segmented run, and across indices.
func TestSaltDomains(t *testing.T) {
	master := [32]byte{9}
	seen := map[[saltBytes]byte]string{}
	note := func(salt [saltBytes]byte, what string) {
		t.Helper()
		if prev, dup := seen[salt]; dup {
			t.Fatalf("salt of %s repeats that of %s", what, prev)
		}
		seen[salt] = what
	}
	seeds := map[string][32]byte{
		"master": master,
		"seg 0":  deriveSubSeed(&master, "seg", 0),
		"seg 1":  deriveSubSeed(&master, "seg", 1),
		"bnd 1":  deriveSubSeed(&master, "bnd", 1),
	}
	for name, seed := range seeds {
		salts := newSalter(&seed)
		for _, label := range []byte{treeExec, treeMem, treeLogProd, treeFinalProd, treeInitProd, treeImage} {
			for _, i := range []int{0, 1, 255, 256, 1 << 20} {
				note(salts.deriveSalt(label, i), name)
			}
		}
	}
}
