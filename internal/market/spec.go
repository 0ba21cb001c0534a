// Package market is the core of PDS²: it wires the governance ledger,
// smart contracts, storage subsystem, TEE executors, reward schemes and
// decentralized learning into the five-role marketplace of Fig. 1 and
// drives workloads through the Fig. 2 lifecycle — submission, discovery,
// provider opt-in, executor registration with participation certificates,
// attested execution, decentralized aggregation, result publication and
// reward settlement, all audited on-chain.
package market

import (
	"crypto/ed25519"
	"fmt"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// WorkloadState is the lifecycle state machine of a workload contract.
type WorkloadState uint64

// Lifecycle states (Fig. 2). A workload is Open while providers and
// executors are joining, Running once the consumer's preconditions are
// met and the governance layer instructs executors to proceed, Complete
// when a consistent result was accepted and rewards were paid, Cancelled
// when it expired before its conditions were met, and Disputed when
// executors submitted conflicting results.
const (
	StateOpen WorkloadState = iota
	StateRunning
	StateComplete
	StateCancelled
	StateDisputed

	// StateFunding precedes Open for ERC-20-denominated workloads: the
	// contract waits for the consumer to approve and pull the token
	// budget into escrow (§III-A: fungible tokens "used to handle any
	// kind of rewards offered by the consumers").
	StateFunding
)

// String implements fmt.Stringer.
func (s WorkloadState) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateRunning:
		return "running"
	case StateComplete:
		return "complete"
	case StateCancelled:
		return "cancelled"
	case StateDisputed:
		return "disputed"
	case StateFunding:
		return "funding"
	default:
		return fmt.Sprintf("WorkloadState(%d)", uint64(s))
	}
}

// Spec is the binding workload specification a consumer submits (§II-C):
// data preconditions, rewards, the workload definition and the start
// conditions.
type Spec struct {
	// Predicate is the semantic data requirement (§IV-C) providers'
	// storage subsystems evaluate against their metadata.
	Predicate string

	// MinProviders and MinItems are the start conditions: the number of
	// distinct providers and total data items that must have joined.
	MinProviders uint64
	MinItems     uint64

	// ExpiryHeight is the ledger height after which the workload can be
	// cancelled and the escrowed budget refunded.
	ExpiryHeight uint64

	// ExecutorFeeBps is the share of the budget paid to executors, in
	// basis points; the rest goes to data providers.
	ExecutorFeeBps uint64

	// Measurement is the expected enclave code measurement; executor
	// attestation quotes must match it.
	Measurement crypto.Digest

	// QAPub is the quoting authority's public key used to verify those
	// quotes.
	QAPub []byte

	// RewardToken, when non-zero, denominates rewards in that ERC-20
	// contract instead of the native token. The workload then deploys in
	// the Funding state and the consumer must approve TokenBudget to the
	// workload address and call "fund" before providers can join.
	RewardToken identity.Address

	// TokenBudget is the ERC-20 reward amount (ignored in native mode,
	// where the deploy transaction's value is the budget).
	TokenBudget uint64

	// Params is the opaque workload definition interpreted by the
	// enclave code (model dimensions, hyperparameters, …). The contract
	// treats it as data; its hash is part of the workload identity.
	Params []byte

	// Class is the computation class datasets' usage-control policies
	// whitelist ("train", "stats", …). Empty defaults to
	// DefaultComputationClass; see ComputationClass.
	Class string

	// Purpose is the consumer's declared purpose for the computation,
	// matched against dataset policies' consented purpose strings.
	Purpose string

	// Registry is the platform registry holding dataset policies. The
	// workload contract calls it at admission time to enforce each
	// contributed dataset's policy; Consumer.SubmitWorkload fills it in
	// automatically. Zero disables admission-layer policy enforcement
	// (pre-policy specs).
	Registry identity.Address
}

// DefaultComputationClass is the class assumed for specs that predate
// the Class field (every built-in workload is federated training).
const DefaultComputationClass = "train"

// ComputationClass returns the spec's computation class, defaulting to
// DefaultComputationClass when unset.
func (s *Spec) ComputationClass() string {
	if s.Class == "" {
		return DefaultComputationClass
	}
	return s.Class
}

// Validate checks structural sanity.
func (s *Spec) Validate() error {
	if s.Predicate == "" {
		return fmt.Errorf("market: spec has no data predicate")
	}
	if s.MinProviders == 0 {
		return fmt.Errorf("market: spec requires at least one provider")
	}
	if s.ExecutorFeeBps > 10_000 {
		return fmt.Errorf("market: executor fee %d bps exceeds 100%%", s.ExecutorFeeBps)
	}
	if len(s.QAPub) != ed25519.PublicKeySize {
		return fmt.Errorf("market: spec QA public key must be %d bytes", ed25519.PublicKeySize)
	}
	if s.Measurement.IsZero() {
		return fmt.Errorf("market: spec has no enclave measurement")
	}
	if !s.RewardToken.IsZero() && s.TokenBudget == 0 {
		return fmt.Errorf("market: token-denominated spec needs a TokenBudget")
	}
	return nil
}

// Encode serializes the spec with the contract ABI.
func (s *Spec) Encode() []byte {
	return contract.NewEncoder().
		String(s.Predicate).
		Uint64(s.MinProviders).
		Uint64(s.MinItems).
		Uint64(s.ExpiryHeight).
		Uint64(s.ExecutorFeeBps).
		Digest(s.Measurement).
		Blob(s.QAPub).
		Address(s.RewardToken).
		Uint64(s.TokenBudget).
		Blob(s.Params).
		String(s.Class).
		String(s.Purpose).
		Address(s.Registry).
		Bytes()
}

// DecodeSpec inverts Encode.
func DecodeSpec(b []byte) (*Spec, error) {
	d := contract.NewDecoder(b)
	s := Spec{
		Predicate: d.String(), MinProviders: d.Uint64(), MinItems: d.Uint64(),
		ExpiryHeight: d.Uint64(), ExecutorFeeBps: d.Uint64(),
		Measurement: d.Digest(), QAPub: d.Blob(), RewardToken: d.Address(), TokenBudget: d.Uint64(),
		Params: d.Blob(), Class: d.String(), Purpose: d.String(), Registry: d.Address(),
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("market: decode spec: %w", err)
	}
	return &s, nil
}

// WorkloadIDFor derives the digest under which a workload contract is
// known off-chain (in certificates, grants and quotes) from its on-chain
// address.
func WorkloadIDFor(addr identity.Address) crypto.Digest {
	return crypto.HashConcat([]byte("pds2/workload-id"), addr[:])
}

// RegistrationReport returns the attestation report data an executor's
// enclave binds when registering for a workload: proof that this
// specific enclave will serve this workload for this executor.
func RegistrationReport(workloadID crypto.Digest, executor identity.Address) crypto.Digest {
	return crypto.HashConcat([]byte("pds2/report/register"), workloadID[:], executor[:])
}

// ResultReport returns the attestation report data binding a result
// submission: the enclave certifies that it computed resultHash with
// the given contribution scores for this workload.
func ResultReport(workloadID, resultHash, scoresHash crypto.Digest) crypto.Digest {
	return crypto.HashConcat([]byte("pds2/report/result"), workloadID[:], resultHash[:], scoresHash[:])
}
