package merkle

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// refMultiProof is the multiproof written out from its definition: at
// each level, the siblings of the known nodes that are not known
// themselves, left to right; the parents of the known nodes are the
// next level's known nodes.
func refMultiProof(t *Tree, indices []int) []Hash {
	known := map[int]bool{}
	for _, i := range indices {
		known[i] = true
	}
	var out []Hash
	for lvl := 0; lvl < t.Depth(); lvl++ {
		var sibs []int
		next := map[int]bool{}
		for i := range known {
			if !known[i^1] {
				sibs = append(sibs, i^1)
			}
			next[i>>1] = true
		}
		slices.Sort(sibs)
		for _, s := range sibs {
			out = append(out, t.levels[lvl][s])
		}
		known = next
	}
	return out
}

// opened returns the tree's leaves at indices.
func opened(t *Tree, indices []int) []Leaf {
	out := make([]Leaf, len(indices))
	for k, i := range indices {
		out[k] = Leaf{Index: i, Hash: t.levels[0][i]}
	}
	return out
}

// randomSubset returns a sorted, distinct, non-empty subset of [0, n).
func randomSubset(rng *rand.Rand, n int) []int {
	var out []int
	p := rng.Float64()
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		out = []int{rng.Intn(n)}
	}
	return out
}

// TestMultiProofMatchesDefinition: ProveMulti ships exactly the nodes
// the definition names, in its order, each once; VerifyMulti accepts
// them; and a one-leaf multiproof is that leaf's path, byte for byte.
func TestMultiProofMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 33, 100, 1000} {
		tree := build(leaves(n))
		for i := 0; i < n; i++ {
			mp, err := tree.ProveMulti([]int{i})
			if err != nil {
				t.Fatal(err)
			}
			p, _ := tree.Prove(i)
			if !slices.Equal(mp.Nodes, p.Path) || len(p.Path) != tree.Depth() {
				t.Fatalf("n=%d leaf %d: one-leaf multiproof is not the path", n, i)
			}
		}
		for trial := 0; trial < 50; trial++ {
			idx := randomSubset(rng, n)
			mp, err := tree.ProveMulti(idx)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMultiProof(tree, idx); !slices.Equal(mp.Nodes, want) {
				t.Fatalf("n=%d %v: %d nodes, the definition names %d", n, idx, len(mp.Nodes), len(want))
			}
			if err := VerifyMulti(tree.Root(), tree.Depth(), opened(tree, idx), mp); err != nil {
				t.Fatalf("n=%d %v: valid multiproof rejected: %v", n, idx, err)
			}
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		mp, _ := tree.ProveMulti(all)
		if pad := refMultiProof(tree, all); len(mp.Nodes) != len(pad) {
			t.Fatalf("n=%d every leaf opened: %d nodes, want %d padding siblings", n, len(mp.Nodes), len(pad))
		}
	}
}

// TestVerifyMultiRejects: every way a multiproof can be spelled other
// than ProveMulti's is an error, and so is any index set ProveMulti
// would refuse.
func TestVerifyMultiRejects(t *testing.T) {
	tree := build(leaves(13))
	idx := []int{2, 3, 6, 11}
	mp, err := tree.ProveMulti(idx)
	if err != nil {
		t.Fatal(err)
	}
	root, depth, ls := tree.Root(), tree.Depth(), opened(tree, idx)
	if len(mp.Nodes) < 2 || mp.Nodes[0] == mp.Nodes[1] {
		t.Fatalf("fixture: %d nodes", len(mp.Nodes))
	}
	swapped := slices.Clone(mp.Nodes)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	forged := slices.Clone(ls)
	forged[1].Hash[0] ^= 1
	for name, c := range map[string]struct {
		depth  int
		leaves []Leaf
		nodes  []Hash
		want   error
	}{
		"surplus node":       {depth, ls, append(slices.Clone(mp.Nodes), PaddingHash(0)), ErrProofInvalid},
		"missing node":       {depth, ls, mp.Nodes[:len(mp.Nodes)-1], ErrProofInvalid},
		"no nodes":           {depth, ls, nil, ErrProofInvalid},
		"nodes out of order": {depth, ls, swapped, ErrProofInvalid},
		"forged leaf":        {depth, forged, mp.Nodes, ErrProofInvalid},
		"leaves out of order": {depth, []Leaf{ls[1], ls[0], ls[2], ls[3]}, mp.Nodes,
			ErrProofInvalid},
		"duplicated index":     {depth, []Leaf{ls[0], ls[1], ls[1], ls[2], ls[3]}, mp.Nodes, ErrProofInvalid},
		"no leaves":            {depth, nil, nil, ErrProofInvalid},
		"index past the tree":  {depth, append(slices.Clone(ls), Leaf{Index: 1 << depth}), mp.Nodes, ErrIndexOutOfRange},
		"negative index":       {depth, append([]Leaf{{Index: -1}}, ls...), mp.Nodes, ErrIndexOutOfRange},
		"shallower tree":       {depth - 1, ls, mp.Nodes, ErrIndexOutOfRange},
		"deeper tree":          {depth + 1, ls, mp.Nodes, ErrProofInvalid},
		"depth beyond any int": {maxDepth + 1, ls, mp.Nodes, ErrProofInvalid},
	} {
		err := VerifyMulti(root, c.depth, c.leaves, MultiProof{c.nodes})
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", name, err, c.want)
		}
	}
	for _, bad := range [][]int{nil, {3, 2}, {2, 2}, {-1}, {13}} {
		if _, err := tree.ProveMulti(bad); err == nil {
			t.Errorf("ProveMulti(%v) accepted", bad)
		}
	}
}

// nodePool lists every node of the tree below the root, level by level:
// what FuzzMultiProof picks its node lists from, so that the real
// siblings are within its reach.
func nodePool(t *Tree) []Hash {
	var out []Hash
	for _, l := range t.levels[:t.Depth()] {
		out = append(out, l...)
	}
	return out
}

// fuzzLeaves and fuzzNodes turn fuzz bytes into an index list (not
// necessarily sorted, distinct or in range) and a node list drawn from
// the tree's own nodes and a few hashes that are none of them.
func fuzzLeaves(t *Tree, raw []byte) ([]int, []Leaf) {
	idx := make([]int, len(raw))
	ls := make([]Leaf, len(raw))
	for k, b := range raw {
		idx[k] = int(b)%(t.Len()+2) - 1
		ls[k].Index = idx[k]
		if idx[k] >= 0 && idx[k] < t.Len() {
			ls[k].Hash = t.levels[0][idx[k]]
		}
	}
	return idx, ls
}

func fuzzNodes(t *Tree, raw []byte) []Hash {
	pool := nodePool(t)
	nodes := make([]Hash, len(raw))
	for k, b := range raw {
		if b < 240 && len(pool) > 0 {
			nodes[k] = pool[int(b)%len(pool)]
		} else {
			nodes[k] = Hash{b}
		}
	}
	return nodes
}

// FuzzMultiProof: arbitrary index sets and node lists against small
// trees never panic VerifyMulti, and whatever it accepts is ProveMulti's
// own output for those indices — no multiproof has two spellings.
func FuzzMultiProof(f *testing.F) {
	for _, n := range []int{1, 5, 13, 32, 40} {
		tree := build(leaves(n))
		pool := nodePool(tree)
		for _, idx := range [][]int{{0}, {0, 1}, {n - 1}, {0, n / 2, n - 1}} {
			idx = slices.Compact(idx)
			if idx[len(idx)-1] >= n {
				continue
			}
			mp, err := tree.ProveMulti(idx)
			if err != nil {
				f.Fatal(err)
			}
			rawIdx := make([]byte, len(idx))
			for k, i := range idx {
				rawIdx[k] = byte(i + 1)
			}
			rawNodes := make([]byte, len(mp.Nodes))
			for k, h := range mp.Nodes {
				rawNodes[k] = byte(slices.Index(pool, h))
			}
			f.Add(uint8(n-1), rawIdx, rawNodes)
			f.Add(uint8(n-1), rawIdx, rawNodes[:len(rawNodes)/2])
		}
	}
	trees := map[int]*Tree{}
	f.Fuzz(func(t *testing.T, n uint8, rawIdx, rawNodes []byte) {
		size := 1 + int(n)%40
		tree := trees[size]
		if tree == nil {
			tree = build(leaves(size))
			trees[size] = tree
		}
		idx, ls := fuzzLeaves(tree, rawIdx)
		nodes := fuzzNodes(tree, rawNodes)
		if VerifyMulti(tree.Root(), tree.Depth(), ls, MultiProof{nodes}) != nil {
			return
		}
		want, err := tree.ProveMulti(idx)
		if err != nil {
			t.Fatalf("accepted leaves %v that ProveMulti refuses: %v", idx, err)
		}
		if !slices.Equal(nodes, want.Nodes) {
			t.Fatalf("accepted a second spelling of the multiproof of %v: %d nodes, want %d", idx, len(nodes), len(want.Nodes))
		}
	})
}
