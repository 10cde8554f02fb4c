package keys

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scmove/internal/hashing"
)

func signedBatch(t *testing.T, n int) ([]hashing.Hash, []Signature) {
	t.Helper()
	digests := make([]hashing.Hash, n)
	sigs := make([]Signature, n)
	for i := 0; i < n; i++ {
		kp := Deterministic(uint64(i + 1))
		digests[i] = hashing.Sum([]byte{byte(i), byte(i >> 8)})
		sig, err := kp.Sign(digests[i])
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	return digests, sigs
}

func TestVerifyBatchMatchesSerial(t *testing.T) {
	digests, sigs := signedBatch(t, 9)
	// Corrupt one signature and mismatch one digest so the error slots are
	// exercised alongside the happy path.
	sigs[3].R = []byte{1, 2, 3}
	digests[6] = hashing.Sum([]byte("other content"))

	wantAddrs := make([]hashing.Address, len(sigs))
	wantErrs := make([]error, len(sigs))
	for i := range sigs {
		wantAddrs[i], wantErrs[i] = sigs[i].Verify(digests[i])
	}

	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		addrs, errs := VerifyBatch(digests, sigs)
		runtime.GOMAXPROCS(prev)
		for i := range sigs {
			if addrs[i] != wantAddrs[i] {
				t.Fatalf("GOMAXPROCS=%d index %d: address %s, want %s", procs, i, addrs[i], wantAddrs[i])
			}
			if (errs[i] == nil) != (wantErrs[i] == nil) {
				t.Fatalf("GOMAXPROCS=%d index %d: error %v, want %v", procs, i, errs[i], wantErrs[i])
			}
		}
	}
}

func TestVerifyBatchEmptyAndMismatch(t *testing.T) {
	addrs, errs := VerifyBatch(nil, nil)
	if len(addrs) != 0 || len(errs) != 0 {
		t.Fatal("empty batch must return empty results")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	VerifyBatch(make([]hashing.Hash, 2), make([]Signature, 1))
}

// TestPoolGoDoesNotBlockUpToQueueDepth holds every worker on a gate and
// requires Go to accept QueueDepth more jobs without blocking — the event
// loop's deferred signatures must not wait for a free worker — and each job
// to run exactly once after the gate opens.
func TestPoolGoDoesNotBlockUpToQueueDepth(t *testing.T) {
	const workers = 2
	p := NewPool(workers)
	defer p.Close()
	gate := make(chan struct{})
	var held sync.WaitGroup
	held.Add(workers)
	for i := 0; i < workers; i++ {
		p.Go(func() {
			held.Done()
			<-gate
		})
	}
	held.Wait() // both workers are parked on the gate, the queue is empty

	runs := make([]atomic.Int32, QueueDepth)
	var ran sync.WaitGroup
	ran.Add(QueueDepth)
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i := range runs {
			i := i
			p.Go(func() {
				runs[i].Add(1)
				ran.Done()
			})
		}
	}()
	blocked := false
	select {
	case <-submitted:
	case <-time.After(5 * time.Second):
		blocked = true
	}
	close(gate)
	<-submitted
	ran.Wait()
	if blocked {
		t.Fatalf("Go blocked before %d jobs were queued behind busy workers", QueueDepth)
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
}

func TestPoolRunsAllJobs(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var mu sync.Mutex
	seen := make(map[int]bool)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		i := i
		wg.Add(1)
		p.Go(func() {
			defer wg.Done()
			mu.Lock()
			seen[i] = true
			mu.Unlock()
		})
	}
	wg.Wait()
	if len(seen) != 50 {
		t.Fatalf("ran %d of 50 jobs", len(seen))
	}
}
