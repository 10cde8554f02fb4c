package state

import (
	"testing"

	"scmove/internal/u256"
)

// TestCommitReleasesWorkingSet pins the Commit contract that the decoded
// per-block working set does not accumulate across blocks: a long-running
// node's RSS would otherwise grow with every address ever touched.
func TestCommitReleasesWorkingSet(t *testing.T) {
	db := newTestDB(t)
	for i := byte(1); i <= 20; i++ {
		db.AddBalance(addr(i), u256.FromUint64(uint64(i)))
		db.SetStorage(addr(i), word(1), word(i))
	}
	if len(db.cache) == 0 {
		t.Fatal("working set empty before commit")
	}
	db.Commit()
	if len(db.cache) != 0 {
		t.Fatalf("working set holds %d entries after commit", len(db.cache))
	}
	if len(db.slotDelta) != 0 {
		t.Fatalf("slot delta holds %d entries after commit", len(db.slotDelta))
	}
	// Reads still see the committed values (now from the trees).
	if got := db.GetBalance(addr(5)); got.Cmp(u256.FromUint64(5)) != 0 {
		t.Fatalf("balance after release: %v", got)
	}
	if got := db.GetStorage(addr(5), word(1)); got != word(5) {
		t.Fatalf("storage after release: %x", got)
	}
}

// TestWarmReadsZeroAlloc pins the read path's cost: an account read served
// by the working set and a slot read served by the resident storage tree must
// not allocate.
func TestWarmReadsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	db := newTestDB(t)
	a := addr(1)
	db.AddBalance(a, u256.FromUint64(100))
	db.SetStorage(a, word(1), word(42))
	db.Commit()

	// The first post-commit read re-decodes the account into the working set.
	db.GetBalance(a)
	db.GetStorage(a, word(1))

	if avg := testing.AllocsPerRun(200, func() {
		if db.GetStorage(a, word(1)) != word(42) {
			t.Fatal("wrong storage value")
		}
	}); avg != 0 {
		t.Fatalf("warm GetStorage allocates %.1f per call", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if db.GetBalance(a).IsZero() {
			t.Fatal("wrong balance")
		}
	}); avg != 0 {
		t.Fatalf("warm GetBalance allocates %.1f per call", avg)
	}
}
