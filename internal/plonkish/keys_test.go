package plonkish

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/pcs"
	"repro/internal/zkerrors"
)

// proveBytes runs a full prove with seeded blinding randomness and returns
// the serialized proof, so two runs from equivalent keys are comparable
// byte for byte.
func proveBytes(t *testing.T, pk *ProvingKey) []byte {
	t.Helper()
	ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte("key-material-test"))})
	defer ff.SetRandomSource(nil)
	proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestKeyMaterialRoundTripAndSetupEquivalence(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		cs := testCircuit()
		const n = 32
		pk, vk, err := Setup(cs, n, testFixed(n), backend)
		if err != nil {
			t.Fatal(err)
		}
		data, err := pk.Material().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var m KeyMaterial
		if err := m.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}

		// Material-based setup must do zero MSM work and yield keys that
		// produce byte-identical proofs and an identical VK digest.
		before := curve.MSMCalls()
		pk2, vk2, err := SetupFromMaterial(testCircuit(), n, testFixed(n), backend, &m)
		msms := curve.MSMCalls() - before
		if err != nil {
			t.Fatalf("%v SetupFromMaterial: %v", backend, err)
		}
		if msms != 0 {
			t.Fatalf("%v SetupFromMaterial performed %d MSMs, want 0", backend, msms)
		}
		if !bytes.Equal(vk.Digest(), vk2.Digest()) {
			t.Fatalf("%v VK digest differs after material round trip", backend)
		}
		if got, want := proveBytes(t, pk2), proveBytes(t, pk); !bytes.Equal(got, want) {
			t.Fatalf("%v proof bytes differ between fresh and material-based keys", backend)
		}

		// VK-only setup: no fixed values, no MSMs, verifies real proofs.
		before = curve.MSMCalls()
		vkOnly, err := SetupVK(testCircuit(), n, backend, &m)
		if err != nil {
			t.Fatalf("%v SetupVK: %v", backend, err)
		}
		if msms := curve.MSMCalls() - before; msms != 0 {
			t.Fatalf("%v SetupVK performed %d MSMs, want 0", backend, msms)
		}
		proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(vkOnly, testInstance(24), proof); err != nil {
			t.Fatalf("%v VK-only key rejected a valid proof: %v", backend, err)
		}
		if err := Verify(vkOnly, testInstance(25), proof); err == nil {
			t.Fatalf("%v VK-only key accepted a proof for the wrong instance", backend)
		}
	}
}

func TestKeyMaterialRejectsMismatch(t *testing.T) {
	cs := testCircuit()
	const n = 32
	pk, _, err := Setup(cs, n, testFixed(n), pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	m := pk.Material()

	// Wrong backend.
	if _, _, err := SetupFromMaterial(testCircuit(), n, testFixed(n), pcs.IPA, m); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
		t.Fatalf("wrong backend: got %v", err)
	}
	// Wrong row count.
	if _, _, err := SetupFromMaterial(testCircuit(), 64, testFixed(64), pcs.KZG, m); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
		t.Fatalf("wrong rows: got %v", err)
	}
	// Tampered polynomial: fails the interpolation cross-check.
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var tampered KeyMaterial
	if err := tampered.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	one := ff.One()
	tampered.FixedPolys[0][0].Add(&tampered.FixedPolys[0][0], &one)
	if _, _, err := SetupFromMaterial(testCircuit(), n, testFixed(n), pcs.KZG, &tampered); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
		t.Fatalf("tampered poly: got %v", err)
	}
}

func TestKeyMaterialDecodeRejectsCorruption(t *testing.T) {
	cs := testCircuit()
	const n = 32
	pk, _, err := Setup(cs, n, testFixed(n), pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	data, err := pk.Material().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XKEY"), data[4:]...),
		"bad version": append(append([]byte(nil), keyMagic[:]...), 99),
		"truncated":   data[:len(data)-5],
		"trailing":    append(append([]byte(nil), data...), 1, 2, 3),
	}
	// Oversized column count: header says 2^31 fixed columns.
	huge := append([]byte(nil), data...)
	huge[10], huge[11], huge[12], huge[13] = 0x7f, 0xff, 0xff, 0xff
	cases["oversized count"] = huge
	for name, d := range cases {
		var m KeyMaterial
		if err := m.UnmarshalBinary(d); !errors.Is(err, zkerrors.ErrMalformedArtifact) {
			t.Errorf("%s: got %v, want ErrMalformedArtifact", name, err)
		}
	}
}
