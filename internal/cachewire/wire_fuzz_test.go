package cachewire

import (
	"bytes"
	"testing"
)

// FuzzDecodeEntry: whatever bytes a peer sends, DecodeEntry either
// rejects them or returns an entry that AppendEntry re-encodes to the
// identical bytes — so nothing is silently dropped or reinterpreted —
// and it never panics. The retired flag bit 1 is always rejected.
func FuzzDecodeEntry(f *testing.F) {
	for _, e := range []Entry{
		{PerReplica: 0, MaxGB: 12.5},
		{PerReplica: 41.25, MaxGB: 30, Fits: true},
		{MaxGB: 0, Failed: true},
		{PerReplica: 17, MaxGB: 22, Fits: true, SplitBW: true},
	} {
		f.Add(AppendEntry(nil, e))
	}
	good := AppendEntry(nil, Entry{PerReplica: 3.5, MaxGB: 41, Fits: true})
	f.Add(good[:EntrySize-1])                    // truncated
	f.Add(append(good[:len(good):len(good)], 0)) // oversized
	skewed := append([]byte(nil), good...)
	skewed[0] = Version + 1
	f.Add(skewed)
	retired := append([]byte(nil), good...)
	retired[1] |= 1 << 1
	f.Add(retired)

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEntry(data)
		if err != nil {
			return
		}
		if data[1]&(1<<1) != 0 {
			t.Fatalf("retired flag bit 1 accepted: % x", data)
		}
		if got := AppendEntry(nil, e); !bytes.Equal(got, data) {
			t.Fatalf("decode/encode is not the identity:\nin:  % x\nout: % x", data, got)
		}
	})
}
