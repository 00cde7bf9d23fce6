package recordlog

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"
)

// sampleFileBytes builds a small valid log image without touching the
// filesystem: header, descriptor table, then n event frames.
func sampleFileBytes(n int) []byte {
	var hdr [headerSize]byte
	magic := Magic
	headerFields(&cursor{b: hdr[:]}, &magic, &Header{Version: Version, Flags: FlagVirtualClock, Epoch: time.Unix(0, 0), Node: "fuzz"})
	out := append([]byte(nil), hdr[:]...)
	for i := range formats {
		out = append(out, frame(RecFormat, payloadOf(&formats[i]))...)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		out = append(out, frame(RecEvent, payloadOf(&EventRecord{Event: randEvent(rng)}))...)
	}
	return out
}

// FuzzReadRecord throws arbitrary bytes at the reader: it must never
// panic, never loop forever, and classify every input as clean EOF,
// truncated tail, corrupt, or a header error. Committed seeds live in
// testdata/fuzz/FuzzReadRecord; CI extends the corpus on a schedule
// (.github/workflows/ci.yml).
func FuzzReadRecord(f *testing.F) {
	// Seed with a well-formed file, a truncated one, a corrupted one,
	// and one carrying an unknown record type. Built in memory — fuzz
	// worker processes re-run this setup, so it must not touch disk.
	valid := sampleFileBytes(5)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-10] ^= 0x55
	f.Add(corrupt)
	f.Add(append(append([]byte(nil), valid...), frame(0x6e, []byte("mystery"))...))
	f.Add([]byte(Magic))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A 64 KiB payload bound and the input's finite length bound
		// the loop; count records as a sanity ceiling anyway.
		for n := 0; n < len(data)+1; n++ {
			rec, err := r.Next()
			if err != nil {
				if err == io.EOF {
					return
				}
				var te *TruncatedError
				var ce *CorruptError
				if !errors.As(err, &te) && !errors.As(err, &ce) {
					t.Fatalf("Next returned unclassified error %v", err)
				}
				return
			}
			if rec == nil {
				t.Fatal("Next returned nil record with nil error")
			}
		}
		t.Fatalf("reader produced more records than input bytes (%d)", len(data))
	})
}
