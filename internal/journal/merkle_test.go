package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// buildLog writes n records through a writer and reads them back.
func buildLog(t *testing.T, n int) *Log {
	t.Helper()
	path, _ := writeFixture(t, n)
	lg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// TestProofRoundTrip: for every record of logs of varied sizes
// (covering odd promotions), the inclusion proof verifies and its
// leaf matches the record's recomputed leaf.
func TestProofRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 9} {
		lg := buildLog(t, n)
		root := lg.Root()
		for seq := range lg.Records {
			p, err := lg.Proof(seq)
			if err != nil {
				t.Fatalf("n=%d seq=%d: %v", n, seq, err)
			}
			if p.Root != root {
				t.Fatalf("n=%d seq=%d: proof root %s, log root %s", n, seq, p.Root, root)
			}
			if err := VerifyInclusion(p); err != nil {
				t.Fatalf("n=%d seq=%d: %v", n, seq, err)
			}
			leaf, err := RecordLeaf(lg.Records[seq])
			if err != nil {
				t.Fatal(err)
			}
			if leaf != p.Leaf {
				t.Fatalf("n=%d seq=%d: RecordLeaf %s, proof leaf %s", n, seq, leaf, p.Leaf)
			}
		}
	}
}

// TestProofRejectsWrongRecord: a proof for record A does not verify a
// different record, and a mangled audit path fails.
func TestProofRejectsWrongRecord(t *testing.T) {
	lg := buildLog(t, 6)
	p, err := lg.Proof(2)
	if err != nil {
		t.Fatal(err)
	}
	otherLeaf, err := RecordLeaf(lg.Records[3])
	if err != nil {
		t.Fatal(err)
	}
	forged := p
	forged.Leaf = otherLeaf
	if err := VerifyInclusion(forged); err == nil {
		t.Fatal("proof verified a different record's leaf")
	}
	mangled := p
	mangled.Audit = append([]ProofStep(nil), p.Audit...)
	mangled.Audit[0].Right = !mangled.Audit[0].Right
	if err := VerifyInclusion(mangled); err == nil {
		t.Fatal("proof verified with a flipped audit step")
	}
}

// TestProofOutOfRange names the valid range.
func TestProofOutOfRange(t *testing.T) {
	lg := buildLog(t, 3)
	if _, err := lg.Proof(3); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("proof(3) over 3 records: %v", err)
	}
	if _, err := lg.Proof(-1); err == nil {
		t.Fatal("proof(-1) succeeded")
	}
}

// TestRootChangesWithAnyRecord: the root commits to every record.
func TestRootChangesWithAnyRecord(t *testing.T) {
	lg := buildLog(t, 5)
	root := lg.Root()
	for i := range lg.Records {
		mut := &Log{Records: append([]Record(nil), lg.Records...)}
		mut.Records[i].Note = "x"
		if mut.Root() == root {
			t.Fatalf("mutating record %d left the root unchanged", i)
		}
	}
	if (&Log{}).Root() == root {
		t.Fatal("empty log shares a root with a populated one")
	}
}

// TestVerifyReportsRootAndHead: Verify of an intact journal reports
// the same chain head and root as the parsed log.
func TestVerifyReportsRootAndHead(t *testing.T) {
	path, _ := writeFixture(t, 4)
	lg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.Clean() {
		t.Fatalf("verify of intact journal: %s", vr)
	}
	if vr.ChainHead != lg.ChainHead() || vr.Root != lg.Root() {
		t.Fatalf("verify head/root (%s, %s) != log (%s, %s)", vr.ChainHead, vr.Root, lg.ChainHead(), lg.Root())
	}
}

// TestAuditMatchesSeparateReads: one ReadAudit of a torn journal
// reports what Verify does, with the root Inspect's records give, and
// every proof it builds equals the one Inspect's log builds.
func TestAuditMatchesSeparateReads(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		path, _ := writeFixture(t, n)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"seq":99,"kind":"unit","vti`); err != nil {
			t.Fatal(err)
		}
		f.Close()
		a, err := ReadAudit(path)
		if err != nil || a.Err != nil {
			t.Fatalf("n=%d: ReadAudit: %v, %v", n, err, a.Err)
		}
		vr, err := Verify(path)
		if err != nil {
			t.Fatal(err)
		}
		lg, err := Inspect(path)
		if err != nil {
			t.Fatal(err)
		}
		if a.Result != vr || vr.Root != lg.Root() || vr.Clean() {
			t.Fatalf("n=%d: audit %+v, verify %+v, log root %s", n, a.Result, vr, lg.Root())
		}
		for seq := -1; seq <= n; seq++ {
			got, gerr := a.Proof(seq)
			want, werr := lg.Proof(seq)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d seq=%d: audit proof %+v (%v), log proof %+v (%v)", n, seq, got, gerr, want, werr)
			}
		}
	}
}

// TestAuditRefusesHeaderlessPrefix: a verifiable prefix that does not
// open with a header is reported but never proved, as Inspect refuses
// to read it.
func TestAuditRefusesHeaderlessPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Record{Kind: KindUnit}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := ReadAudit(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ierr := Inspect(path); a.Err == nil || a.Err.Error() != ierr.Error() {
		t.Fatalf("audit error %v, Inspect error %v", a.Err, ierr)
	}
	if !a.Result.Clean() || a.Result.Records != 1 {
		t.Fatalf("audit result %s, want clean with 1 record", a.Result)
	}
	if _, err := a.Proof(0); err == nil {
		t.Fatal("proof of a headerless journal succeeded")
	}
}
