package universe

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/relay"
	"scmove/internal/simnet"
	"scmove/internal/u256"
)

// sharedPoolWorkers is the size of keys.SharedPool: creating the pool here,
// at package init, sizes it to the process's GOMAXPROCS before any test
// changes that.
var sharedPoolWorkers = func() int {
	keys.SharedPool()
	return runtime.GOMAXPROCS(0)
}()

// holdSharedPool occupies every shared crypto worker until release runs.
func holdSharedPool() (release func()) {
	gate := make(chan struct{})
	var held sync.WaitGroup
	held.Add(sharedPoolWorkers)
	for i := 0; i < sharedPoolWorkers; i++ {
		keys.SharedPool().Go(func() {
			held.Done()
			<-gate
		})
	}
	held.Wait()
	return sync.OnceFunc(func() { close(gate) })
}

// TestLoopWaitCountsPoolAndEncode makes a client of a universe with the
// observability layer on block at both process-wide loop-wait sites while
// every shared crypto worker is held, and requires the universe's counters
// to report each block. A submission link that corrupts every copy encodes
// the transaction before its deferred signature can land
// (loopwait.sig.encode); a signature submitted behind keys.QueueDepth
// queued ones waits for room in the pool (loopwait.pool).
func TestLoopWaitCountsPoolAndEncode(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Metrics = true
	cfg.Chaos = &ChaosConfig{Submit: simnet.LinkFaults{CorruptRate: 1}}
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	c, to := u.Chain(1), hashing.AddressFromBytes([]byte{0x09})

	release := holdSharedPool()
	defer release()
	time.AfterFunc(50*time.Millisecond, release)
	u.Client(0).Call(c, to, nil, u256.One())
	if got := u.Counters().Get("loopwait.sig.encode.blocks"); got == 0 {
		t.Fatal("encoding a corrupted copy waited for the signature, but loopwait.sig.encode.blocks is 0")
	}

	// A fault-free link: an encode would wait on the held workers for good.
	cl := relay.NewClient(ClientKey(1), map[hashing.ChainID]*simnet.Link{
		1: simnet.NewLink(u.Sched, cfg.SubmitDelay, simnet.LinkFaults{}, 0),
	})
	release = holdSharedPool()
	defer release()
	for i := 0; i < keys.QueueDepth; i++ {
		cl.Call(c, to, nil, u256.One())
	}
	time.AfterFunc(50*time.Millisecond, release)
	cl.Call(c, to, nil, u256.One())
	if got := u.Counters().Get("loopwait.pool.blocks"); got == 0 {
		t.Fatalf("a signature behind %d queued ones waited, but loopwait.pool.blocks is 0", keys.QueueDepth)
	}
	if ns := u.Counters().Get("loopwait.pool.ns"); ns < uint64(10*time.Millisecond) {
		t.Fatalf("loopwait.pool.ns is %d, want the ~50 ms the workers were held", ns)
	}
}
