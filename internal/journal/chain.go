package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// The hash chain: record i's chain digest is
//
//	chain_i = SHA-256(chain_{i-1} || '\n' || body_i)
//
// where body_i is the record marshalled with its Chain field empty
// and chain_{-1} is ChainSeed(). Any single-byte change to a
// committed record changes its body, so its stored chain digest no
// longer verifies; recomputing it instead changes the input to every
// later record's digest, so the first unmodified successor fails.
// Tampering is therefore always localizable to a first bad sequence
// number (Verify), and rewriting the whole suffix moves the chain
// head, which an auditor pins externally (Log.ChainHead, the
// gateway's proof endpoint).

// ChainSeed returns the chain digest conceptually preceding record 0:
// the SHA-256 of the schema-qualified seed label, so journals of
// different schema versions can never splice.
func ChainSeed() string {
	sum := sha256.Sum256([]byte(Schema + "/chain-seed"))
	return hex.EncodeToString(sum[:])
}

// chainNext folds one record body into the chain.
func chainNext(prev string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(prev))
	h.Write([]byte{'\n'})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// chainBody marshals the record as the chain and Merkle leaves see
// it: with the Chain field empty. Because Chain is the struct's last
// field, the writer's spliced line is exactly this body with the
// chain appended, and an unmarshal/marshal round trip reproduces it
// byte-for-byte (encoding/json emits canonical shortest floats and
// preserves RawMessage payloads verbatim).
func chainBody(rec Record) ([]byte, error) {
	rec.Chain = ""
	return json.Marshal(rec)
}

// spliceChain turns a chainless marshalled body into the stored line
// by inserting the chain as the final JSON field. Equivalent to
// re-marshalling the record with Chain set, without the second pass.
func spliceChain(body []byte, chain string) []byte {
	line := make([]byte, 0, len(body)+len(chain)+12)
	line = append(line, body[:len(body)-1]...)
	line = append(line, `,"chain":"`...)
	line = append(line, chain...)
	line = append(line, '"', '}', '\n')
	return line
}

// splitChain undoes spliceChain on a stored line: it returns the raw
// chainless body and the chain digest. ok is false when the line does
// not end in a chain field.
func splitChain(line []byte) (body []byte, chain string, ok bool) {
	const suffixLen = len(`,"chain":""}`) + sha256.Size*2
	if len(line) < suffixLen {
		return nil, "", false
	}
	tail := line[len(line)-suffixLen:]
	if !bytes.HasPrefix(tail, []byte(`,"chain":"`)) || !bytes.HasSuffix(tail, []byte(`"}`)) {
		return nil, "", false
	}
	chain = string(tail[len(`,"chain":"`) : len(tail)-len(`"}`)])
	body = append(make([]byte, 0, len(line)-suffixLen+1), line[:len(line)-suffixLen]...)
	return append(body, '}'), chain, true
}

// verifyLine parses and verifies one journal line as record idx with
// the given predecessor chain digest. The chain is checked over the
// line's raw body bytes, not a re-marshalled record, so any raw
// single-byte change is detected — including ones json.Unmarshal
// would normalize away (a mangled field name parses as an ignored
// unknown field and would re-marshal back to the original body).
func verifyLine(line []byte, idx int, prev string) (Record, error) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, fmt.Errorf("journal: record %d: %w", idx, err)
	}
	if rec.Seq != idx {
		return rec, fmt.Errorf("journal: record %d carries seq %d", idx, rec.Seq)
	}
	if len(rec.Payload) > 0 {
		if got := Digest(rec.Payload); got != rec.Digest {
			return rec, fmt.Errorf("journal: record %d payload digest %s does not match stored %s",
				idx, got, rec.Digest)
		}
	}
	body, chain, ok := splitChain(line)
	if !ok {
		return rec, fmt.Errorf("journal: record %d has no chain digest", idx)
	}
	if want := chainNext(prev, body); chain != want {
		return rec, fmt.Errorf("journal: record %d chain digest does not verify (stored %.12s…, computed %.12s…): record tampered, reordered or torn",
			idx, chain, want)
	}
	return rec, nil
}

// VerifyResult is the forensic report of a chain verification pass.
type VerifyResult struct {
	// Records counts chain-verified records from the start.
	Records int `json:"records"`
	// BadSeq is the sequence number of the first record that failed
	// verification, -1 when the whole journal verifies. A torn
	// half-line counts as the record it would have been.
	BadSeq int `json:"badSeq"`
	// Reason is the first verification failure, empty when clean.
	Reason string `json:"reason,omitempty"`
	// TrailingBytes counts unverifiable bytes beyond the verified
	// prefix (0 when clean).
	TrailingBytes int `json:"trailingBytes,omitempty"`
	// MissingNewline notes a verified final record lacking its
	// newline — repairable damage, not corruption.
	MissingNewline bool `json:"missingNewline,omitempty"`
	// ChainHead is the chain digest of the last verified record.
	ChainHead string `json:"chainHead"`
	// Root is the Merkle root over the verified records' leaves —
	// the compact commitment inclusion proofs verify against.
	Root string `json:"root"`
}

// Clean reports whether every byte of the journal verified.
func (r VerifyResult) Clean() bool { return r.BadSeq < 0 && r.TrailingBytes == 0 && !r.MissingNewline }

func (r VerifyResult) String() string {
	if r.Clean() {
		return fmt.Sprintf("clean: %d records, chain head %.12s…, root %.12s…", r.Records, r.ChainHead, r.Root)
	}
	if r.BadSeq < 0 {
		return fmt.Sprintf("repairable: %d records verified, final newline missing", r.Records)
	}
	return fmt.Sprintf("damaged at seq %d: %s (%d verified records, %d unverifiable tail bytes)",
		r.BadSeq, r.Reason, r.Records, r.TrailingBytes)
}

// Verify checks the journal at path against its hash chain without
// modifying it, pinpointing the first bad sequence number when the
// chain breaks. The returned error covers I/O only; corruption is
// reported in the result.
func Verify(path string) (VerifyResult, error) {
	a, err := ReadAudit(path)
	if err != nil {
		return VerifyResult{}, err
	}
	return a.Result, nil
}

// Audit is one read of a journal for serving its provenance: the
// verification report and the Merkle leaves that inclusion proofs
// fold, both derived from a single scan of the file, so a report plus
// a proof costs one read, one chain verification and one leaf pass.
// It keeps no Log, whose exported Records could drift from the
// leaves.
type Audit struct {
	// Result is what Verify reports for the same bytes.
	Result VerifyResult
	// Err is what Inspect would fail with for the same bytes: no
	// verifiable record prefix exists, or it does not open with a
	// header. Proofs are refused while it is set.
	Err error

	leaves    [][sha256.Size]byte
	leavesErr error
}

// ReadAudit reads and verifies the journal at path once. Like
// Verify, the returned error covers I/O only.
func ReadAudit(path string) (*Audit, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := scan(b)
	_, lerr := res.log(path)
	lg := &Log{Records: res.recs}
	a := &Audit{
		Result: VerifyResult{
			Records:        len(res.recs),
			BadSeq:         -1,
			TrailingBytes:  res.total - res.goodEnd,
			MissingNewline: res.missingNewline,
			ChainHead:      lg.ChainHead(),
		},
		Err: lerr,
	}
	if res.goodEnd < res.total {
		a.Result.BadSeq = len(res.recs)
		a.Result.Reason = res.reason
	}
	a.leaves, a.leavesErr = lg.leaves()
	if a.leavesErr == nil {
		// A record that unmarshalled cannot fail to re-marshal; the
		// root stays empty if one did, and Proof surfaces the error.
		a.Result.Root = hexRoot(a.leaves)
	}
	return a, nil
}

// Proof builds the inclusion proof for record seq, as Log.Proof does
// for the same records.
func (a *Audit) Proof(seq int) (Proof, error) {
	if a.Err != nil {
		return Proof{}, a.Err
	}
	if err := checkSeq(seq, a.Result.Records); err != nil {
		return Proof{}, err
	}
	if a.leavesErr != nil {
		return Proof{}, a.leavesErr
	}
	return prove(a.leaves, seq, a.Result.ChainHead), nil
}
