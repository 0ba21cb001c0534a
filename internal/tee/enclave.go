// Package tee simulates trusted execution environments, the oblivious-
// computation technology PDS² selects (§III-B): enclaves with code
// measurement, remote attestation through a quoting authority and an
// SGX-style EPC paging cost model.
//
// The simulation substitutes for Intel SGX hardware as follows: the
// *trust chain* (measurement → quote → authority) is implemented with
// real signatures, so all verification logic an executor or the
// governance layer performs is genuine; the *isolation* is assumed (the
// enclave runs in-process); and the *performance* characteristics are
// modelled after published SGX numbers — small multiplicative overhead
// inside the EPC, steep cliffs when the working set exceeds it. That is
// exactly what experiments E5 and E14 need: honest cost shapes and a
// verifiable chain to attack.
package tee

import (
	"errors"
	"fmt"
	"time"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/simnet"
	"pds2/internal/telemetry"
)

// TEE instrumentation: enclave launches, ecall volume and real (host-CPU)
// ecall latency. The modelled "virtual" SGX time is reported by the
// experiments; telemetry tracks what this process actually spends.
var (
	mEnclaveLaunches = telemetry.C("tee.enclave.launches_total")
	mEcalls          = telemetry.C("tee.ecalls_total")
	mEcallSeconds    = telemetry.H("tee.ecall_seconds", telemetry.TimeBuckets)
	mGuardDenials    = telemetry.C("tee.guard.denials_total")
)

// Measurement identifies enclave code, the SGX MRENCLAVE analogue: the
// hash of the program's canonical code bytes.
type Measurement = crypto.Digest

// Program is code that can be launched inside an enclave. Fn must be a
// pure function of its input; all I/O happens through the input and
// output byte strings, mirroring the ecall interface of SGX enclaves.
type Program struct {
	// Code is the canonical representation of the program (source,
	// bytecode, or a self-describing workload spec). Its hash is the
	// measurement that attestation proves.
	Code []byte

	// Fn is the entry point.
	Fn func(input []byte) ([]byte, error)
}

// Measure returns the program's measurement.
func (p Program) Measure() Measurement { return crypto.HashBytes(p.Code) }

// CostModel parameterizes the simulated performance of a TEE platform.
// Defaults follow the published SGX literature: ~1.2x slowdown for
// EPC-resident working sets, up to ~6x beyond, ~10 ms enclave creation,
// ~8 µs per enclave transition.
type CostModel struct {
	EPCBytes       int64       // usable enclave page cache
	BaseOverhead   float64     // multiplicative slowdown inside the EPC
	PagingOverhead float64     // extra slowdown factor at full paging
	CreateCost     simnet.Time // one-time enclave build/launch cost
	EcallCost      simnet.Time // per-call transition cost
}

// DefaultCostModel returns SGX1-like parameters (92 MiB usable EPC).
func DefaultCostModel() CostModel {
	return CostModel{
		EPCBytes:       92 << 20,
		BaseOverhead:   1.2,
		PagingOverhead: 5.0,
		CreateCost:     10 * simnet.Millisecond,
		EcallCost:      8 * simnet.Microsecond,
	}
}

// OverheadFactor returns the modelled slowdown for a working set of the
// given size: BaseOverhead inside the EPC, rising smoothly towards
// BaseOverhead·(1+PagingOverhead) as the working set dwarfs the EPC.
func (m CostModel) OverheadFactor(workingSetBytes int64) float64 {
	if workingSetBytes <= m.EPCBytes || m.EPCBytes <= 0 {
		return m.BaseOverhead
	}
	excess := 1 - float64(m.EPCBytes)/float64(workingSetBytes)
	return m.BaseOverhead * (1 + m.PagingOverhead*excess)
}

// Platform is a TEE-capable machine: it holds the hardware attestation
// key (certified by the quoting authority at "manufacturing" time).
type Platform struct {
	key      *identity.Identity // platform attestation key
	cert     PlatformCert       // authority's endorsement of that key
	cost     CostModel
	enclaves int
}

// NewPlatform provisions a platform: the authority certifies its
// attestation key, standing in for Intel's provisioning service.
func NewPlatform(authority *QuotingAuthority, cost CostModel, rng *crypto.DRBG) *Platform {
	key := identity.New("tee-platform", rng)
	cert := authority.CertifyPlatform(key.PublicKey())
	// A 32-byte device secret is drawn and dropped: no enclave keeps
	// state between calls, and the draws after it (and every figure
	// derived from them) stay where the goldens pin them.
	rng.Bytes(32)
	return &Platform{key: key, cert: cert, cost: cost}
}

// Cost returns the platform's cost model.
func (p *Platform) Cost() CostModel { return p.cost }

// Guard is a call-admission hook consulted on every Call before the
// input reaches the program. The host (market layer) installs a guard
// that re-evaluates each dataset's usage-control policy; a non-nil error
// aborts the call, so denied plaintext is never touched by enclave code.
type Guard func(input []byte, workingSetBytes int64) error

// Enclave is a launched program instance on a platform.
type Enclave struct {
	platform    *Platform
	program     Program
	measurement Measurement
	calls       int64
	guard       Guard
}

// SetGuard installs (or, with nil, removes) the enclave's call guard.
func (e *Enclave) SetGuard(g Guard) { e.guard = g }

// Launch builds an enclave from the program. The returned enclave's
// measurement commits to the exact code launched.
func (p *Platform) Launch(program Program) (*Enclave, error) {
	if len(program.Code) == 0 {
		return nil, errors.New("tee: empty program code")
	}
	if program.Fn == nil {
		return nil, errors.New("tee: program has no entry point")
	}
	p.enclaves++
	mEnclaveLaunches.Inc()
	return &Enclave{
		platform:    p,
		program:     program,
		measurement: program.Measure(),
	}, nil
}

// Measurement returns the enclave's code measurement.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// CallResult reports the outcome and cost of one enclave call.
type CallResult struct {
	Output []byte

	// Elapsed is the real CPU time the payload took in this process.
	Elapsed time.Duration

	// Virtual is the modelled enclave execution time:
	// EcallCost + Elapsed × OverheadFactor(workingSet), which is what the
	// experiments report as "TEE time".
	Virtual simnet.Time
}

// Call executes the enclave entry point. workingSetBytes is the payload's
// memory footprint, which drives the EPC paging model.
func (e *Enclave) Call(input []byte, workingSetBytes int64) (CallResult, error) {
	if e.guard != nil {
		if err := e.guard(input, workingSetBytes); err != nil {
			mGuardDenials.Inc()
			return CallResult{}, fmt.Errorf("tee: call refused by guard: %w", err)
		}
	}
	start := time.Now()
	out, err := e.program.Fn(input)
	elapsed := time.Since(start)
	if err != nil {
		return CallResult{}, fmt.Errorf("tee: enclave call: %w", err)
	}
	e.calls++
	mEcalls.Inc()
	mEcallSeconds.Observe(elapsed.Seconds())
	factor := e.platform.cost.OverheadFactor(workingSetBytes)
	virtual := e.platform.cost.EcallCost +
		simnet.Time(float64(elapsed.Microseconds())*factor)
	return CallResult{Output: out, Elapsed: elapsed, Virtual: virtual}, nil
}

// LaunchCost returns the one-time virtual cost of creating this enclave.
func (e *Enclave) LaunchCost() simnet.Time { return e.platform.cost.CreateCost }
