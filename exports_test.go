package scmove

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowList names the exported production functions and methods that
// no program calls but that stay exported, each with its reason: a roadmap
// item gives it a program caller, or tests in other packages need it. A
// name is "<package>.<Func>" or "<package>.<Type>.<Method>", the package
// being its directory under internal/.
var exportAllowList = map[string]string{
	"relay.DecodeJournal":                     "relayer recovery from the encoded journal (ROADMAP 31(a), 5(a))",
	"relay.Mover.Crash":                       "relayer crashes in the chaos sweep (ROADMAP 31(a), 5(a))",
	"relay.Mover.Recover":                     "relayer recovery in the chaos sweep (ROADMAP 31(a), 5(a))",
	"simnet.Network.FaultStats":               "the chaos sweep's fault counters (ROADMAP 31(a))",
	"simnet.Network.SchedulePartition":        "a partition that heals, in the chaos sweep (ROADMAP 31(a))",
	"simnet.Network.SetLinkFaults":            "per-link faults in the chaos sweep (ROADMAP 31(a))",
	"tendermint.Cluster.NodeIDs":              "picks the validators the chaos sweep crashes (ROADMAP 31(a))",
	"tendermint.Cluster.ScheduleCrashRestart": "validator crashes and restarts in the chaos sweep (ROADMAP 31(a))",
	"state.DB.PruneStale":                     "stale-copy collection through consensus (ROADMAP 30)",
	"state.DB.SlotsRead":                      "the work ledger and the per-transaction work bound (ROADMAP 22(a), 29)",
	"state.DB.StorageTreeAt":                  "core and chain tests check a copy's eviction through it",
	"state.OpenDB":                            "reopening a file store, the cold path (ROADMAP 11); bench's statesmoke reopens with it",
	"simnet.Link.SetCut":                      "relayer partitions in relay's and universe's tests, and in the chaos sweep (ROADMAP 31(a))",
	"simnet.EncodeFrame":                      "the inverse of DecodeFrame; tendermint's wire tests frame a proposal with it",
	"u256.FromLimbs":                          "the inverse of Int.Limbs, kept beside it",
	"workload.DefaultKittiesConfig":           "the documented scaled-down Fig. 5 replay; bench's statesmoke runs it",
}

// TestExportsHaveProgramCallers fails on any exported top-level function or
// method in non-test internal/ code that no program file references, unless
// exportAllowList names it, and on an allow-list entry that a program now
// calls or that no longer exists. A program file is a non-test .go file of
// cmd/, examples/, benchmark/, internal/ or the root facade. The test-only
// internal/oracle and internal/journal are neither scanned nor programs.
//
// Matching is by name alone, so it is conservative: a method whose name is
// common, such as relay.Journal.Encode, passes as soon as a program
// references any Encode.
func TestExportsHaveProgramCallers(t *testing.T) {
	if len(exportAllowList) > 16 {
		t.Errorf("exportAllowList holds %d names, at most 16: give one a program caller or move it into a test file", len(exportAllowList))
	}
	unused, stale, err := testOnlyExports(".", exportAllowList)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		t.Errorf("%s is exported but no program calls it: delete it, move it into a _test.go file, or allow-list it with a reason", name)
	}
	for _, name := range stale {
		t.Errorf("%s is allow-listed but a program calls it or it is gone: drop it from exportAllowList", name)
	}
}

// TestTestOnlyExportsFixture runs the scan on testdata/exports, whose
// internal/a declares an exported function and an exported method that
// nothing calls, one that only a test calls, one that a program calls and
// one that is allow-listed.
func TestTestOnlyExportsFixture(t *testing.T) {
	unused, stale, err := testOnlyExports(filepath.Join("testdata", "exports"),
		map[string]string{"a.Allowed": "fixture"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.NoCaller", "a.T.NoCaller", "a.TestOnly"}; !slices.Equal(unused, want) || len(stale) != 0 {
		t.Fatalf("testOnlyExports = %v, stale %v; want %v, none stale", unused, stale, want)
	}
}

// testOnlyExports parses every .go file under root and returns, sorted, the
// exported functions and methods of root/internal that no non-test file
// references and allow does not name (unused), and the names of allow that
// are not such a function or method (stale).
func testOnlyExports(root string, allow map[string]string) (unused, stale []string, err error) {
	type decl struct{ name, ident string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		pkg, scanned := strings.CutPrefix(filepath.ToSlash(rel), "internal/")
		if scanned && (pkg == "oracle" || pkg == "journal") {
			return nil // test-only packages: neither scanned nor a program
		}
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fn.Name] = true
			if !scanned || !fn.Name.IsExported() {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				name = pkg + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{name, fn.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	listed := map[string]bool{}
	for _, d := range decls {
		if used[d.ident] {
			continue
		}
		if _, ok := allow[d.name]; ok {
			listed[d.name] = true
		} else {
			unused = append(unused, d.name)
		}
	}
	for name := range allow {
		if !listed[name] {
			stale = append(stale, name)
		}
	}
	slices.Sort(unused)
	slices.Sort(stale)
	return unused, stale, nil
}

// recvType is the type name of a method receiver: T, *T, T[K] or *T[K].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
