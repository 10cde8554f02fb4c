package chain

import (
	"testing"

	"scmove/internal/core"
	"scmove/internal/keys"
	"scmove/internal/types"
)

// BenchmarkApplyMove2 is what one Store-1000 Move2 costs its target chain's
// event loop, MPT → IAVL and IAVL → MPT. "inline": the target did not build
// the payload, and ApplyBlock computes the storage work itself. "expected":
// BuildMove2 builds it and starts its preparation, which runs to completion
// — as it does while the relayer waits out the confirmation depth — and
// ApplyBlock takes the result. ns/op and allocs/op are the block's: it
// verifies, installs, runs moveFinish and commits. The build, which a
// relayer pays either way, runs with the timer stopped, and so does the
// set-up of each iteration's target chain, so give a fixed count:
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
		src, addrs := lockedSource(b, pair.src, pair.dst.ChainID, movedContract{stopCode, 1000})
		p, err := core.BuildMoveProof(src, addrs[0], 1)
		if err != nil {
			b.Fatal(err)
		}
		tx := move2Tx(b, kp, pair.dst.ChainID, 0, p)
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
					trustSource(b, c, pair.src, src.Root())
					block := []*types.Transaction{wireCopy(b, tx)}
					if expect {
						if _, err := c.BuildMove2(src, addrs[0], 1); err != nil {
							b.Fatal(err)
						}
						<-prepared(c).done
					}
					b.StartTimer()
					if _, recs := c.ApplyBlock(block, 100, ProposerAddress(pair.dst.ChainID, 0)); !recs[0].Succeeded() {
						b.Fatalf("move2 failed: %s", recs[0].Err)
					}
				}
			})
		}
	}
}
