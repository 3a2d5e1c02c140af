// Package losertree implements a tournament ("loser") tree over k
// integer-indexed entries: the classic k-way merge accelerator. The
// tree stores only int32 entry indices; callers keep the actual keys
// and supply an ordering. Advancing after the winner's key changes
// costs ⌈log2 k⌉ comparisons with no interface boxing or heap sift
// allocations — the structure the engine's tap merge runs its per-item
// loop on.
//
// The ordering must be a strict total order over live entry indices
// (break key ties by index); exhausted entries are modelled by making
// them compare after every live one.
package losertree

// Tree is a loser tree over entries 0..k-1. The zero value is unusable;
// call New.
type Tree struct {
	k int
	// losers[0] holds the champion entry index; losers[1:] hold the
	// loser parked at each internal tournament node. -1 marks slots
	// not yet filled during a build.
	losers []int32
	less   func(a, b int32) bool
}

// New builds a tree over k entries ordered by less. less(a, b) reports
// whether entry a must win against entry b; it must be a strict total
// order.
func New(k int, less func(a, b int32) bool) *Tree {
	t := &Tree{less: less}
	t.Reset(k)
	return t
}

// Reset rebuilds the tournament over k entries (reusing storage).
// Use it after the entry set changes shape; for a single entry's key
// change, Fix is O(log k) instead.
//
// The build replays every leaf into an empty tree: a replay parks at
// the first empty node it meets, so after k replays each internal
// node holds its comparison's loser and losers[0] the champion.
func (t *Tree) Reset(k int) {
	t.k = k
	if cap(t.losers) < k {
		t.losers = make([]int32, k)
	}
	t.losers = t.losers[:k]
	for i := range t.losers {
		t.losers[i] = -1
	}
	for j := 0; j < k; j++ {
		t.Fix(int32(j))
	}
}

// Winner returns the current champion entry index, or -1 for an empty
// tree.
func (t *Tree) Winner() int32 {
	if t.k == 0 {
		return -1
	}
	return t.losers[0]
}

// Fix replays entry j's tournament path after its key changed
// (advanced to its next item, or exhausted): the climber swaps with
// any parked loser it cannot beat, and the path's final winner becomes
// the champion. Leaf j's parent is node (j+k)/2, halving up to the
// root — valid for any k, not just powers of two.
func (t *Tree) Fix(j int32) {
	winner := j
	for n := (int(j) + t.k) / 2; n > 0; n /= 2 {
		if t.losers[n] == -1 {
			t.losers[n] = winner
			return
		}
		if t.less(t.losers[n], winner) {
			winner, t.losers[n] = t.losers[n], winner
		}
	}
	t.losers[0] = winner
}
