package pipeline

import (
	"fmt"

	"ccmem/internal/ir"
)

// Artifact kinds namespace the disk tier: an entry of one kind can never
// be decoded as another, even if a key collision were engineered, because
// the kind is stored in the verified entry header and checked on read.
// The values are part of the on-disk format — append, never renumber.
//
// Kinds 4-6 carry the binary codec v2 payloads (codecv2.go). Kinds 1-3
// were the JSON payloads of earlier releases; they are reserved and never
// reused. An entry of a reserved kind under a key this release looks up
// reads as a miss and is quarantined, so the recompile can store its v2
// replacement under the same key.
const (
	diskKindFrontV2   uint32 = 4
	diskKindBackV2    uint32 = 5
	diskKindProgramV2 uint32 = 6
)

// encodeArtifact renders a cache artifact for the persistent tiers.
// Encoding is total: every value the pipeline produces is representable
// in codec v2, NaN float immediates included.
func encodeArtifact(kind uint32, v any) []byte {
	switch kind {
	case diskKindFrontV2:
		return encodeFrontV2(v.(*frontArtifact))
	case diskKindBackV2:
		return encodeBackV2(v.(*backArtifact))
	case diskKindProgramV2:
		return encodeProgramV2(v.(*programArtifact))
	}
	panic(fmt.Sprintf("pipeline: unknown disk artifact kind %d", kind))
}

// decodeArtifact parses a checksum-verified disk payload back into the
// in-memory artifact form. The checksum guarantees the bytes are what a
// writer produced, not that the writer was sane, so the decoded shape is
// still validated: a malformed payload is an error, which the caller
// turns into (miss, quarantine) — never a wrong artifact. Validation is
// all-or-nothing: nothing in the decoded value is mutated (block
// renumbering) until every function and cross-field invariant has been
// checked, so an error never leaves a half-canonicalized artifact behind.
func decodeArtifact(kind uint32, payload []byte) (any, error) {
	switch kind {
	case diskKindFrontV2:
		return decodeFrontV2(payload)
	case diskKindBackV2:
		return decodeBackV2(payload)
	case diskKindProgramV2:
		return decodeProgramV2(payload)
	}
	return nil, fmt.Errorf("pipeline: unknown disk artifact kind %d", kind)
}

// validateFunc rejects structurally hollow decoded functions. It never
// mutates f: callers renumber blocks (the one piece of derived state in
// the IR) only after every sibling of the artifact has validated.
func validateFunc(f *ir.Func) error {
	if f == nil {
		return fmt.Errorf("pipeline: disk artifact has a nil function")
	}
	if f.Name == "" || len(f.Blocks) == 0 {
		return fmt.Errorf("pipeline: disk artifact function %q is hollow", f.Name)
	}
	for _, b := range f.Blocks {
		if b == nil {
			return fmt.Errorf("pipeline: disk artifact function %q has a nil block", f.Name)
		}
	}
	return nil
}

// checkPerFunc rejects a program artifact whose report map disagrees with
// its function list. The writer records exactly one report per function,
// so any divergence — a missing report, or a report for a function that
// is not in the artifact — means the payload did not come from a sane
// writer and must be quarantined like any other malformed entry rather
// than served with silently wrong per-function accounting.
func checkPerFunc(funcs []*ir.Func, perFunc map[string]FuncReport) error {
	if len(perFunc) != len(funcs) {
		return fmt.Errorf("pipeline: disk program artifact has %d reports for %d functions",
			len(perFunc), len(funcs))
	}
	for _, f := range funcs {
		if _, ok := perFunc[f.Name]; !ok {
			return fmt.Errorf("pipeline: disk program artifact is missing the report for %q", f.Name)
		}
	}
	return nil
}
