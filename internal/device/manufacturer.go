package device

import (
	"errors"
	"fmt"

	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// Manufacturer endorsement (§IV-B): "data reliability depends on the
// security of the device and the quality of the sensors, the signature
// also serves as a 'seal of quality'. This influences the price of the
// device according to the trust that buyers have in the manufacturer."
//
// A Manufacturer signs the keys of the devices it produces; verifiers
// hold a trust level per manufacturer and can require a minimum level,
// and workloads can weight rewards by the quality tier of the data's
// source devices.

// TrustLevel grades a manufacturer in a verifier's policy.
type TrustLevel int

// Trust levels, ordered.
const (
	TrustUnknown TrustLevel = iota
	TrustBasic
	TrustCertified
)

// String implements fmt.Stringer.
func (l TrustLevel) String() string {
	switch l {
	case TrustBasic:
		return "basic"
	case TrustCertified:
		return "certified"
	default:
		return "unknown"
	}
}

// Manufacturer holds the vendor signing key used to endorse device keys
// at production time.
type Manufacturer struct {
	id   *identity.Identity
	Name string
}

// NewManufacturer creates a vendor with a deterministic key.
func NewManufacturer(name string, rng *crypto.DRBG) *Manufacturer {
	return &Manufacturer{id: identity.New("mfr-"+name, rng), Name: name}
}

// Address returns the manufacturer's identity address.
func (m *Manufacturer) Address() identity.Address { return m.id.Address() }

// DeviceCert is the manufacturer's endorsement of one device key.
type DeviceCert struct {
	DevicePub    []byte           `json:"device_pub"`
	Model        string           `json:"model"`
	Manufacturer identity.Address `json:"manufacturer"`
	MfrPub       []byte           `json:"mfr_pub"`
	Sig          []byte           `json:"sig"`
}

func deviceCertBytes(devicePub []byte, model string, mfr identity.Address) []byte {
	buf := make([]byte, 0, len(devicePub)+len(model)+identity.AddressSize+24)
	buf = append(buf, "pds2/device-cert/v1"...)
	buf = append(buf, devicePub...)
	buf = append(buf, model...)
	buf = append(buf, mfr[:]...)
	return buf
}

// Endorse signs a device's public key, binding it to the model name.
func (m *Manufacturer) Endorse(d *Device) DeviceCert {
	return DeviceCert{
		DevicePub:    d.PublicKey(),
		Model:        d.Model,
		Manufacturer: m.id.Address(),
		MfrPub:       m.id.PublicKey(),
		Sig:          m.id.Sign(deviceCertBytes(d.PublicKey(), d.Model, m.id.Address())),
	}
}

// Endorsement verification errors.
var (
	ErrCertForged      = errors.New("device: manufacturer certificate signature invalid")
	ErrUntrustedVendor = errors.New("device: manufacturer below required trust level")
)

// Verify checks the endorsement's internal consistency: the embedded
// manufacturer key matches the claimed address and the signature covers
// the device key and model.
func (c DeviceCert) Verify() error {
	if identity.AddressFromPub(c.MfrPub) != c.Manufacturer {
		return fmt.Errorf("%w: key/address mismatch", ErrCertForged)
	}
	if !identity.Verify(c.MfrPub, deviceCertBytes(c.DevicePub, c.Model, c.Manufacturer), c.Sig) {
		return ErrCertForged
	}
	return nil
}

// TrustPolicy maps manufacturers to trust levels and enforces a minimum
// level for device admission.
type TrustPolicy struct {
	levels  map[identity.Address]TrustLevel
	Minimum TrustLevel
}

// NewTrustPolicy creates a policy requiring at least min trust.
func NewTrustPolicy(min TrustLevel) *TrustPolicy {
	return &TrustPolicy{levels: make(map[identity.Address]TrustLevel), Minimum: min}
}

// SetLevel grades a manufacturer.
func (p *TrustPolicy) SetLevel(mfr identity.Address, level TrustLevel) {
	p.levels[mfr] = level
}

// LevelOf returns the manufacturer's grade (TrustUnknown if ungraded).
func (p *TrustPolicy) LevelOf(mfr identity.Address) TrustLevel {
	return p.levels[mfr]
}

// AdmitDevice verifies a device endorsement against the policy and, on
// success, registers the device in the registry so its readings verify.
// It returns the manufacturer's trust level, which callers can use to
// weight rewards by source quality.
func (p *TrustPolicy) AdmitDevice(reg *identity.Registry, cert DeviceCert) (TrustLevel, error) {
	if err := cert.Verify(); err != nil {
		return TrustUnknown, err
	}
	level := p.LevelOf(cert.Manufacturer)
	if level < p.Minimum {
		return level, fmt.Errorf("%w: %s is %v, need >= %v",
			ErrUntrustedVendor, cert.Manufacturer.Short(), level, p.Minimum)
	}
	if _, err := reg.Register(cert.DevicePub, identity.RoleDevice); err != nil {
		return level, err
	}
	return level, nil
}
