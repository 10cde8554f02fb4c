package keys

import (
	"runtime"
	"sync"

	"scmove/internal/hashing"
	"scmove/internal/metrics"
)

// Pool is a bounded worker pool for ECDSA work (signing and verification).
// P-256 operations cost tens of microseconds each and dominate the CPU
// profile of every transaction-heavy experiment, so batch callers fan the
// per-transaction work out to a fixed set of workers instead of running it
// inline on the (otherwise single-threaded) simulation loop.
//
// A Pool only decides *where* crypto runs, never *what* it computes:
// results are always gathered in input order, so any code path is
// bit-identical at every GOMAXPROCS setting.
type Pool struct {
	jobs chan func()
	once sync.Once
}

// QueueDepth is how many submitted jobs a pool holds beyond the ones its
// workers are running. Deferred client signing (types.SignOn) submits one
// job per simulated transaction from the event loop and waits for it only
// when a block proposal selects the transaction; a buffer of `workers`
// jobs (2 on a 2-core host) instead blocked the loop in Go for 0.7 s of
// three Kitties rounds, so the overlap deferral promised mostly did not
// happen. The proposal still sometimes comes first, because simulated time
// runs far ahead of the pool: kitties_replay's loop blocks in WaitSig
// 907–1 254 times per round, 0.16–0.22 s of a 1.2–1.5 s round (seed 1,
// 2-core host). The measured in-flight peaks are 1 863–1 908 jobs (shard_migrate),
// 961–992 (kitties_replay) and 3 (move_store); this is twice the largest,
// and 65 536 measured the same. It stays bounded: bulk
// submitters (the RPC workloads pre-sign 130 k transactions back to back)
// still block in Go, so a pool never holds more than QueueDepth closures.
const QueueDepth = 1 << 12

// NewPool returns a pool with the given number of workers; workers <= 0
// sizes it to GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: make(chan func(), QueueDepth)}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for job := range p.jobs {
		job()
	}
}

// Go runs job on a pool worker. It returns at once while fewer than
// QueueDepth jobs wait, and blocks beyond that depth — backpressure, not
// unbounded queueing. Jobs start in submission order, so a caller that
// waits on its own jobs also waits for everything queued before them.
func (p *Pool) Go(job func()) {
	metrics.Send(poolWait, p.jobs, job)
}

// poolWait counts the times Go blocks beyond QueueDepth, whoever the caller.
var poolWait = metrics.Process.Wait(metrics.LoopWaitPrefix + "pool")

// Close stops the workers once queued jobs drain. A closed pool must not be
// used again.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.jobs) })
}

// sharedPool is the process-wide default pool, created on first use and
// never closed (workers idle on an empty channel between batches).
var (
	sharedPoolOnce sync.Once
	sharedPool     *Pool
)

// SharedPool returns the process-wide crypto worker pool, sized to
// GOMAXPROCS at first use. Batch verification, block pre-recovery, and
// deferred client signing all share it, so saturating one phase cannot
// oversubscribe the machine.
func SharedPool() *Pool {
	sharedPoolOnce.Do(func() { sharedPool = NewPool(0) })
	return sharedPool
}

// VerifyBatch verifies sigs[i] over digests[i] on the shared worker pool and
// returns the recovered signer addresses in input order, with a per-index
// error for every signature that failed. len(sigs) must equal len(digests).
//
// Order and content of the results are independent of parallelism: each
// index is computed in isolation and written to its own slot.
func VerifyBatch(digests []hashing.Hash, sigs []Signature) ([]hashing.Address, []error) {
	if len(digests) != len(sigs) {
		panic("keys: VerifyBatch length mismatch")
	}
	addrs := make([]hashing.Address, len(sigs))
	errs := make([]error, len(sigs))
	if len(sigs) == 0 {
		return addrs, errs
	}
	// A single-entry batch gains nothing from the pool handoff; verify
	// inline.
	if len(sigs) == 1 {
		addrs[0], errs[0] = sigs[0].Verify(digests[0])
		return addrs, errs
	}
	pool := SharedPool()
	var wg sync.WaitGroup
	wg.Add(len(sigs))
	for i := range sigs {
		i := i
		pool.Go(func() {
			defer wg.Done()
			addrs[i], errs[i] = sigs[i].Verify(digests[i])
		})
	}
	wg.Wait()
	return addrs, errs
}
