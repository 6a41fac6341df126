package rfork

import (
	"errors"
	"testing"

	"cxlfork/internal/vma"
	"cxlfork/internal/wire"
)

// corruptedCorpus derives torn and bit-flipped variants of a well-formed
// record, mirroring the damage a crashed or faulty writer leaves behind.
func corruptedCorpus(f *testing.F, good []byte) {
	f.Add(good)
	for _, n := range []int{0, 1, len(good) / 2, len(good) - 1} {
		if n >= 0 && n <= len(good) {
			f.Add(good[:n])
		}
	}
	for _, i := range []int{0, len(good) / 2, len(good) - 1} {
		if i >= 0 && i < len(good) {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0x10 // flip a varint/continuation bit
			f.Add(bad)
		}
	}
}

// FuzzDecodeGlobalState checks the global-state decoder never panics on
// arbitrary input — a corrupted checkpoint must surface as an error
// wrapping wire.ErrCorrupt.
func FuzzDecodeGlobalState(f *testing.F) {
	gs := GlobalState{
		FDs:    []FDRecord{{Num: 3, Path: "/x", Perm: 0o644}},
		Mounts: []string{"/"},
		PIDNS:  "pidns",
	}
	corruptedCorpus(f, gs.Encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeGlobalState(data); err != nil && !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("error does not wrap ErrCorrupt: %v", err)
		}
	})
}

// FuzzDecodeVMA checks the VMA record decoder likewise.
func FuzzDecodeVMA(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x08, 0x02, 0x10, 0x80})
	corruptedCorpus(f, EncodeVMA(vma.VMA{
		Start: 0x10000, End: 0x14000,
		Prot: vma.Read | vma.Write, Kind: vma.Anon, Name: "[heap]",
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeVMA(data); err != nil && !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("error does not wrap ErrCorrupt: %v", err)
		}
	})
}

// FuzzRestoreGlobalStateEnvelope drives the full restore-side pipeline
// — open the checksummed envelope, then decode the global state — the
// way every mechanism's Restore does. Whatever the damage, the pipeline
// must return an error wrapping wire.ErrCorrupt, never panic, and never
// accept a payload whose checksum does not verify.
func FuzzRestoreGlobalStateEnvelope(f *testing.F) {
	gs := GlobalState{
		FDs:    []FDRecord{{Num: 3, Path: "/x", Perm: 0o644}, {Num: 4, Path: "sock:inv", Perm: 0o600}},
		Mounts: []string{"/", "/proc"},
		PIDNS:  "pidns-7",
	}
	corruptedCorpus(f, wire.SealEnvelope(gs.Encode()))
	f.Add(divergentReplicaEnvelope())
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := wire.OpenEnvelope(data)
		if err == nil {
			_, err = DecodeGlobalState(payload)
		}
		if err != nil && !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("error does not wrap ErrCorrupt: %v", err)
		}
	})
}

// divergentReplicaEnvelope models a replica whose payload drifted from
// the checksum recorded at seal time — the anti-entropy failure mode
// where a repair copy reads torn or stale bytes: one image's payload
// framed under another image's recorded hash.
func divergentReplicaEnvelope() []byte {
	divergent := GlobalState{
		FDs:    []FDRecord{{Num: 3, Path: "/y", Perm: 0o600}},
		Mounts: []string{"/", "/tmp"},
		PIDNS:  "pidns-8",
	}.Encode()
	sealed := GlobalState{
		FDs:    []FDRecord{{Num: 3, Path: "/x", Perm: 0o644}},
		Mounts: []string{"/"},
		PIDNS:  "pidns-7",
	}.Encode()
	e := wire.NewEncoder()
	e.PutBytes(1, divergent)            // envelope payload field
	e.PutUint(2, wire.Checksum(sealed)) // checksum of the *other* copy
	return e.Bytes()
}

// TestDivergentReplicaEnvelopeIsRejected pins the corpus case as a
// regression test: an envelope whose payload and recorded checksum come
// from divergent replicas must fail with ErrChecksum, never restore.
func TestDivergentReplicaEnvelopeIsRejected(t *testing.T) {
	if _, err := wire.OpenEnvelope(divergentReplicaEnvelope()); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("divergent replica envelope opened: err = %v, want ErrChecksum", err)
	}
}
