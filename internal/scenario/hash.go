package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// This file gives a parsed description a canonical content hash, so two
// scenario files that describe the same system — regardless of JSON field
// order, whitespace, duration spelling ("1ms" vs 1000000000 picoseconds) or
// omitted-default fields — hash identically. The rtossimd result cache keys
// on it: a re-submitted configuration is served from memory instead of being
// re-simulated, which is only sound because simulations are deterministic
// functions of the canonical form.
//
// Canonicalization is the parse itself: Parse normalizes every
// representation choice (field order is lost, durations become picoseconds,
// absent fields become zero values), so marshalling the parsed struct back
// to JSON — with struct-field order fixed by the type and map keys sorted by
// encoding/json — yields one byte string per semantic description. Every
// field of System feeds either the simulation or its reports, so any
// semantic change moves the hash.

// CanonicalJSON renders the parsed description in canonical form: the
// encoding/json serialization of the System struct, with the autoEngine
// tri-state normalized (explicit true is the default and hashes like an
// absent knob). The result re-parses to an identical System. The
// compatibility inputs that select nothing (autoEngine false, a task's
// engine field) still feed the hash, so content hashes stay stable across
// versions.
func (s *System) CanonicalJSON() ([]byte, error) {
	if s.AutoEngine != nil && *s.AutoEngine {
		c := *s
		c.AutoEngine = nil
		return json.Marshal(&c)
	}
	return json.Marshal(s)
}

// Hash returns the canonical content hash of the description: the SHA-256 of
// its CanonicalJSON, in lowercase hex.
func (s *System) Hash() (string, error) {
	data, err := s.CanonicalJSON()
	if err != nil {
		return "", fmt.Errorf("scenario: canonicalize: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// HashBytes parses a scenario description and returns its canonical content
// hash. Two byte strings hash equal exactly when they parse to the same
// system.
func HashBytes(data []byte) (string, error) {
	s, err := Parse(data)
	if err != nil {
		return "", err
	}
	return s.Hash()
}

// Canonicalize parses a scenario document and returns both its canonical
// JSON form and its content hash in one pass. The rtossimd job journal uses
// it as its record codec anchor: submit records carry the hash alongside the
// scenario bytes, and replay recomputes the hash to reject records whose
// scenario no longer matches what was journaled (semantic corruption the
// per-record CRC cannot see).
func Canonicalize(data []byte) (canonical []byte, hash string, err error) {
	s, err := Parse(data)
	if err != nil {
		return nil, "", err
	}
	canonical, err = s.CanonicalJSON()
	if err != nil {
		return nil, "", fmt.Errorf("scenario: canonicalize: %w", err)
	}
	sum := sha256.Sum256(canonical)
	return canonical, hex.EncodeToString(sum[:]), nil
}
