package zkvm

import "sync"

// External receipt kinds. Packages layered above the zkVM (e.g.
// internal/fold's recursive FoldedReceipt) define their own AnyReceipt
// implementations with their own wire magic. They register a decoder
// here from an init func so UnmarshalAnyReceipt — and through it the
// ledger, the HTTP API, and the light client — can round-trip kinds
// the zkVM itself knows nothing about.

var (
	kindMu   sync.RWMutex
	kindByID = map[uint32]func([]byte) (AnyReceipt, error){}
)

// RegisterReceiptKind installs a decoder for an externally defined
// receipt kind identified by its little-endian wire magic. It panics
// on a magic already claimed (by a builtin kind or a previous
// registration): magics are protocol constants, so a collision is a
// programming error, not a runtime condition.
func RegisterReceiptKind(magic uint32, decode func([]byte) (AnyReceipt, error)) {
	if decode == nil {
		panic("zkvm: RegisterReceiptKind with nil decoder")
	}
	for k := range formatWires[0].magic {
		if _, builtin := formatOf(magic, receiptKind(k)); builtin {
			panic("zkvm: receipt magic collides with a builtin kind")
		}
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	if _, dup := kindByID[magic]; dup {
		panic("zkvm: duplicate receipt kind registration")
	}
	kindByID[magic] = decode
}

func lookupReceiptKind(magic uint32) func([]byte) (AnyReceipt, error) {
	kindMu.RLock()
	defer kindMu.RUnlock()
	return kindByID[magic]
}

// SelfVerifier is the verification hook for externally registered
// receipt kinds: VerifyAny dispatches to it when the receipt is
// neither a Receipt nor a CompositeReceipt. Implementations must honor
// VerifyOptions (exit-code policy and MinChecks) against their own
// statement.
type SelfVerifier interface {
	AnyReceipt
	VerifyReceipt(prog *Program, opts VerifyOptions) error
}

// ProverTrusted marks receipt kinds whose VerifyReceipt establishes
// an integrity binding over a prover-asserted statement but does NOT
// independently re-verify the guest execution it summarizes (no
// recursive proof of the inner verifications). Anyone can produce
// such a receipt for an arbitrary statement at roughly the cost of
// one verification, so on its own it only demonstrates what the
// *prover* claims. VerifyAny refuses these kinds unless the caller
// sets VerifyOptions.AcceptProverTrusted, forcing callers to either
// audit the underlying self-sound artifact or make the trust
// assumption explicit.
type ProverTrusted interface {
	// ProverTrusted reports whether this receipt's verification is
	// only sound under a trusted-prover assumption.
	ProverTrusted() bool
}

// VerifySegment checks one segment receipt in isolation: its seal
// binds the committed trace to the entry/exit states it declares.
// Chain-level rules (genesis, linkage, indices) are the caller's
// responsibility — VerifyComposite applies them for a full chain; the
// fold leaf stage applies them centrally and fans the per-segment
// seal checks out to farm workers through this entry point.
func VerifySegment(prog *Program, sr *SegmentReceipt, opts VerifyOptions) error {
	return verifySegment(prog, sr, opts, segmentStatement)
}
