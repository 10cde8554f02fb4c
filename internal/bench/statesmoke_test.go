package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/workload"
)

// readRSS returns the process's resident set size in bytes, or -1 when
// /proc is unavailable (non-Linux hosts).
func readRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb int64
			fmt.Sscanf(rest, "%d", &kb)
			return kb * 1024
		}
	}
	return -1
}

// TestStateSmoke is the `make statesmoke` gate: a million-account genesis
// on the file backend with a bounded resident-tree budget,
// update blocks, an RSS ceiling, a close-and-reopen root check, root
// identity against the memory backend on the same script, and a Kitties
// replay on the file backend matching the memory replay's deterministic
// counters. Skipped unless SCMOVE_STATESMOKE is set — it takes a couple of
// minutes and over a gigabyte of RSS (the commitment trees live in memory
// by design; the backend bounds the flat state, not the authenticated
// structure).
func TestStateSmoke(t *testing.T) {
	if os.Getenv("SCMOVE_STATESMOKE") == "" {
		t.Skip("set SCMOVE_STATESMOKE=1 (make statesmoke) to run")
	}
	accounts := 1_000_000
	if s := os.Getenv("SCMOVE_STATESMOKE_ACCOUNTS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad SCMOVE_STATESMOKE_ACCOUNTS %q", s)
		}
		accounts = n
	}
	const rssCeiling = int64(2) << 30

	dir := t.TempDir()
	cfg := StateDBConfig{
		Accounts:        accounts,
		Contracts:       accounts / 100,
		SlotsPerAccount: 2,
		BlockAccounts:   100_000,
		Options: state.Options{
			Backend:          backend.KindFile,
			Dir:              dir,
			StorageTreeLimit: 1024,
		},
	}

	start := time.Now()
	fdb, err := BuildStateDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("file backend: populated %d accounts in %v", accounts, time.Since(start))

	var roots []hashing.Hash
	for r := 1; r <= 3; r++ {
		roots = append(roots, MutateStateBlock(fdb, cfg, r, 2000))
	}
	finalRoot := roots[len(roots)-1]

	// RSS ceiling, asserted before anything else inflates the process.
	runtime.GC()
	debug.FreeOSMemory()
	if rss := readRSS(); rss < 0 {
		t.Log("RSS unavailable on this platform; ceiling not asserted")
	} else {
		t.Logf("file backend RSS: %d MB", rss>>20)
		if rss > rssCeiling {
			t.Fatalf("RSS %d MB exceeds the %d MB ceiling", rss>>20, rssCeiling>>20)
		}
	}

	// Close and reopen: the rebuilt tree must land on the committed root
	// (OpenDB verifies this internally too) and serve reads.
	kind := fdb.TreeKind()
	if err := fdb.Close(); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	re, err := state.OpenDB(fdb.ChainID(), kind, cfg.Options)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Logf("file backend: reopened %d accounts in %v", accounts, time.Since(start))
	if got := re.Root(); got != finalRoot {
		t.Fatalf("reopened root %s, committed %s", got, finalRoot)
	}
	if _, ok := re.GetAccount(StateBenchAddr(accounts / 2)); !ok {
		t.Fatal("reopened store lost an account")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Root identity: the memory backend on the identical script must land
	// on the identical roots at every block.
	mcfg := cfg
	mcfg.Options = state.Options{}
	mdb, err := BuildStateDB(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mdb.Close()
	for r := 1; r <= 3; r++ {
		if got := MutateStateBlock(mdb, mcfg, r, 2000); got != roots[r-1] {
			t.Fatalf("round %d: memory root %s, file root %s", r, got, roots[r-1])
		}
	}

	// Kitties replay on the file backend: same deterministic outcome as the
	// memory replay.
	kcfg := workload.DefaultKittiesConfig(2)
	kcfg.Breeds = 300
	mem, err := workload.RunKitties(kcfg)
	if err != nil {
		t.Fatalf("kitties (memory): %v", err)
	}
	kcfg.State = state.Options{
		Backend:          backend.KindFile,
		Dir:              t.TempDir(),
		StorageTreeLimit: 256,
	}
	file, err := workload.RunKitties(kcfg)
	if err != nil {
		t.Fatalf("kitties (file): %v", err)
	}
	if file.TxsCommitted != mem.TxsCommitted ||
		file.OpsCompleted != mem.OpsCompleted ||
		file.FailedOps != mem.FailedOps ||
		file.PlannedOps != mem.PlannedOps {
		t.Fatalf("kitties replay diverges across backends:\n memory %+v\n file   %+v",
			[4]int{mem.TxsCommitted, mem.OpsCompleted, mem.FailedOps, mem.PlannedOps},
			[4]int{file.TxsCommitted, file.OpsCompleted, file.FailedOps, file.PlannedOps})
	}
}
