package chain

import (
	"testing"

	"scmove/internal/core"
	"scmove/internal/keys"
	"scmove/internal/types"
)

// BenchmarkApplyMove2 is what one Store-1000 Move2 costs its target chain's
// event loop, MPT → IAVL and IAVL → MPT. "inline": nobody announced the
// payload, and ApplyBlock computes the storage work itself. "expected":
// ExpectMove2 announces it, the preparation runs to completion with the
// timer stopped — as it does while the relayer waits out the confirmation
// depth — and ApplyBlock takes the result. ns/op and allocs/op are the
// loop's: ExpectMove2 (expected only) plus the block that verifies,
// installs, runs moveFinish and commits. Each iteration builds its target
// chain with the timer stopped, so give a fixed count:
//
//	go test -run '^$' -bench BenchmarkApplyMove2 -benchmem -benchtime 500x -count 5 ./internal/chain
func BenchmarkApplyMove2(b *testing.B) {
	for _, pair := range []struct {
		name string
		src  core.ChainParams
		dst  Config
	}{
		{"mpt-iavl", mptSource, burrowConfig(2)},
		{"iavl-mpt", iavlSource, ethConfig(1)},
	} {
		kp := keys.Deterministic(1)
		payloads, root := lockedPayloads(b, pair.src, pair.dst.ChainID, movedContract{stopCode, 1000})
		tx := move2Tx(b, kp, pair.dst.ChainID, 0, payloads[0])
		for _, expect := range []bool{false, true} {
			name := pair.name + "/inline"
			if expect {
				name = pair.name + "/expected"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					c := newChain(b, pair.dst, []core.ChainParams{pair.src}, kp)
					trustSource(b, c, pair.src, root)
					block := []*types.Transaction{wireCopy(b, tx)}
					b.StartTimer()
					if expect {
						c.ExpectMove2(tx.Move2)
						b.StopTimer()
						<-c.prep[0].done
						b.StartTimer()
					}
					if _, recs := c.ApplyBlock(block, 100, ProposerAddress(pair.dst.ChainID, 0)); !recs[0].Succeeded() {
						b.Fatalf("move2 failed: %s", recs[0].Err)
					}
				}
			})
		}
	}
}
