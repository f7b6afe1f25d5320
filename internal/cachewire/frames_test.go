package cachewire

import (
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"
)

// randEntries builds n deterministic pseudo-random entries, including
// the codec's edge payloads (infinities, zero, negative zero).
func randEntries(rng *rand.Rand, n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		e := Entry{
			PerReplica: rng.NormFloat64() * 100,
			MaxGB:      rng.Float64() * 80,
			Fits:       rng.Intn(2) == 0,
			Failed:     rng.Intn(3) == 0,
			SplitBW:    rng.Intn(4) == 0,
		}
		switch rng.Intn(8) {
		case 0:
			e.PerReplica = math.Inf(1)
		case 1:
			e.MaxGB = math.Copysign(0, -1)
		}
		out[i] = e
	}
	return out
}

// batchTransports returns the three client-side transports under their
// wire names, each backed by a fresh store.
func batchTransports(t *testing.T) map[string]BatchCache {
	t.Helper()
	_, tcp := startServer(t, 0)
	lb := NewLoopback(0)
	ring := mustRing(t, 2, "a", NewLoopback(0), "b", NewLoopback(0), "c", NewLoopback(0))
	return map[string]BatchCache{"tcp": tcp, "loopback": lb, "ring": ring}
}

func mustRing(t *testing.T, replication int, pairs ...any) *Ring {
	t.Helper()
	var nodes []RingNode
	for i := 0; i < len(pairs); i += 2 {
		nodes = append(nodes, RingNode{Name: pairs[i].(string), Cache: pairs[i+1].(Cache)})
	}
	r, err := NewRing(replication, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMultiBatchRoundTripProperty is the batch property test on all
// three transports: random key/entry vectors MultiPut then MultiGet back
// bit-for-bit, with absent keys interleaved and reported as misses, at
// sizes from empty through a few thousand keys.
func TestMultiBatchRoundTripProperty(t *testing.T) {
	for name, c := range batchTransports(t) {
		rng := rand.New(rand.NewSource(7))
		for _, n := range []int{0, 1, 2, 17, 256, 3000} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64() | 1 // odd keys stored; even keys probed as misses
			}
			ents := randEntries(rng, n)
			if err := c.MultiPut(keys, ents); err != nil {
				t.Fatalf("%s n=%d: multiput: %v", name, n, err)
			}
			// Probe a vector interleaving every stored key with an absent one.
			probe := make([]uint64, 0, 2*n)
			for _, k := range keys {
				probe = append(probe, k, k&^1)
			}
			out := make([]Entry, len(probe))
			ok := make([]bool, len(probe))
			if err := c.MultiGet(probe, out, ok); err != nil {
				t.Fatalf("%s n=%d: multiget: %v", name, n, err)
			}
			for i, k := range keys {
				if !ok[2*i] || !sameEntryBits(out[2*i], ents[i]) {
					t.Fatalf("%s n=%d key %#x: got %+v ok=%v, want %+v", name, n, k, out[2*i], ok[2*i], ents[i])
				}
				if ok[2*i+1] {
					t.Fatalf("%s n=%d: absent key %#x reported a hit", name, n, k&^1)
				}
			}
		}
	}
}

// sameEntryBits compares entries bit-for-bit (== would conflate -0/0).
func sameEntryBits(a, b Entry) bool {
	return math.Float64bits(a.PerReplica) == math.Float64bits(b.PerReplica) &&
		math.Float64bits(a.MaxGB) == math.Float64bits(b.MaxGB) &&
		a.Fits == b.Fits && a.Failed == b.Failed && a.SplitBW == b.SplitBW
}

// TestBatchAgreesWithPerKey cross-checks the two protocol generations on
// every transport: entries published per-key must read back identically
// through MultiGet, and vice versa.
func TestBatchAgreesWithPerKey(t *testing.T) {
	for name, c := range batchTransports(t) {
		e1 := Entry{PerReplica: 12.5, MaxGB: 3, Fits: true}
		e2 := Entry{MaxGB: 99, Failed: true}
		if err := c.Put(1, e1); err != nil {
			t.Fatal(err)
		}
		if err := c.MultiPut([]uint64{2}, []Entry{e2}); err != nil {
			t.Fatal(err)
		}
		out := make([]Entry, 2)
		ok := make([]bool, 2)
		if err := c.MultiGet([]uint64{1, 2}, out, ok); err != nil {
			t.Fatal(err)
		}
		if !ok[0] || out[0] != e1 || !ok[1] || out[1] != e2 {
			t.Fatalf("%s: batch read of mixed publishes: %+v %v", name, out, ok)
		}
		if got, hit, err := c.Get(2); err != nil || !hit || got != e2 {
			t.Fatalf("%s: per-key read of batched publish: %+v hit=%v err=%v", name, got, hit, err)
		}
	}
}

// TestBatchVectorSizeMismatch pins the pre-flight validation shared by
// every transport and the helper fallbacks: disagreeing vector lengths
// fail without touching the wire or the store.
func TestBatchVectorSizeMismatch(t *testing.T) {
	for name, c := range batchTransports(t) {
		if err := c.MultiGet([]uint64{1, 2}, make([]Entry, 1), make([]bool, 2)); err == nil {
			t.Errorf("%s: short entry vector accepted", name)
		}
		if err := c.MultiPut([]uint64{1, 2}, make([]Entry, 1)); err == nil {
			t.Errorf("%s: short put vector accepted", name)
		}
	}
}

// rawExchange dials addr, writes raw, and returns what the server sends
// back until it hangs up or `want` bytes arrive (want < 0 → read to EOF,
// expecting the hang-up).
func rawExchange(t *testing.T, addr string, raw []byte, want int) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if want < 0 {
		// Simulate a peer dying mid-stream: half-close so a server blocked
		// on the rest of a truncated frame sees EOF, then drain its side.
		conn.(*net.TCPConn).CloseWrite()
		got, _ := io.ReadAll(conn)
		return got
	}
	buf := make([]byte, want)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("reading %d response bytes: %v", want, err)
	}
	return buf
}

// TestServerRejectsOversizeCount sends batch frames whose count exceeds
// MaxBatch: the server must hang up before reading any payload, and the
// store stays empty.
func TestServerRejectsOversizeCount(t *testing.T) {
	srv, c := startServer(t, 0)
	for _, op := range []byte{opMultiGet, opMultiPut} {
		raw := []byte{op}
		raw = binary.LittleEndian.AppendUint32(raw, MaxBatch+1)
		if got := rawExchange(t, c.addr, raw, -1); len(got) != 0 {
			t.Fatalf("op %d oversize count: got %d response bytes, want hang-up", op, len(got))
		}
	}
	if srv.Len() != 0 {
		t.Fatalf("oversize frames stored %d entries", srv.Len())
	}
}

// TestServerRejectsSkewedBatch sends a MultiPut whose LAST entry is
// version-skewed: the whole frame must be rejected — connection dropped,
// not even the valid prefix stored.
func TestServerRejectsSkewedBatch(t *testing.T) {
	srv, c := startServer(t, 0)
	raw := []byte{opMultiPut}
	raw = binary.LittleEndian.AppendUint32(raw, 3)
	for k := uint64(1); k <= 3; k++ {
		raw = binary.LittleEndian.AppendUint64(raw, k)
		off := len(raw)
		raw = AppendEntry(raw, Entry{PerReplica: float64(k)})
		if k == 3 {
			raw[off] = Version + 1
		}
	}
	if got := rawExchange(t, c.addr, raw, -1); len(got) != 0 {
		t.Fatalf("skewed batch answered with %d bytes, want hang-up", len(got))
	}
	if srv.Len() != 0 {
		t.Fatalf("skewed batch half-applied: %d entries stored", srv.Len())
	}
	// Unknown flag bits are the other skew axis DecodeEntry rejects.
	raw = []byte{opMultiPut}
	raw = binary.LittleEndian.AppendUint32(raw, 1)
	raw = binary.LittleEndian.AppendUint64(raw, 9)
	off := len(raw)
	raw = AppendEntry(raw, Entry{})
	raw[off+1] = 0x80
	if got := rawExchange(t, c.addr, raw, -1); len(got) != 0 || srv.Len() != 0 {
		t.Fatalf("unknown-flag batch accepted: %d bytes, %d entries", len(got), srv.Len())
	}
}

// TestServerIgnoresTruncatedBatch closes the connection mid-frame: the
// declared count promises more records than arrive, and the store must
// be untouched when the read fails.
func TestServerIgnoresTruncatedBatch(t *testing.T) {
	srv, c := startServer(t, 0)
	raw := []byte{opMultiPut}
	raw = binary.LittleEndian.AppendUint32(raw, 3) // promises 3 records
	raw = binary.LittleEndian.AppendUint64(raw, 1) // delivers 1½
	raw = AppendEntry(raw, Entry{PerReplica: 1})
	raw = binary.LittleEndian.AppendUint64(raw, 2)
	if got := rawExchange(t, c.addr, raw, -1); len(got) != 0 {
		t.Fatalf("truncated batch answered with %d bytes", len(got))
	}
	if srv.Len() != 0 {
		t.Fatalf("truncated batch stored %d entries", srv.Len())
	}
}

// TestServerEmptyBatchFrames exercises count=0 on the raw wire — legal,
// answered, and the connection stays usable for the next request.
func TestServerEmptyBatchFrames(t *testing.T) {
	_, c := startServer(t, 0)
	raw := []byte{opMultiGet}
	raw = binary.LittleEndian.AppendUint32(raw, 0)
	resp := rawExchange(t, c.addr, raw, 5)
	if resp[0] != statusMulti || binary.LittleEndian.Uint32(resp[1:]) != 0 {
		t.Fatalf("empty multiget response %v", resp)
	}
	raw = []byte{opMultiPut}
	raw = binary.LittleEndian.AppendUint32(raw, 0)
	if resp := rawExchange(t, c.addr, raw, 1); resp[0] != statusOK {
		t.Fatalf("empty multiput status %d", resp[0])
	}
}

// TestClientRejectsCorruptBatchResponse puts a hostile "server" behind
// the client: count skew, an unknown present marker and a version-skewed
// entry must each poison the connection and surface as an error — the
// client-side half of the strict decode discipline.
func TestClientRejectsCorruptBatchResponse(t *testing.T) {
	cases := []struct {
		name string
		resp func(n int) []byte
	}{
		{"count-skew", func(n int) []byte {
			b := []byte{statusMulti}
			b = binary.LittleEndian.AppendUint32(b, uint32(n+1))
			for i := 0; i <= n; i++ {
				b = append(b, 0)
			}
			return b
		}},
		{"bad-marker", func(n int) []byte {
			b := []byte{statusMulti}
			b = binary.LittleEndian.AppendUint32(b, uint32(n))
			b = append(b, 7)
			return b
		}},
		{"skewed-entry", func(n int) []byte {
			b := []byte{statusMulti}
			b = binary.LittleEndian.AppendUint32(b, uint32(n))
			b = append(b, 1)
			off := len(b)
			b = AppendEntry(b, Entry{})
			b[off] = Version + 1
			return b
		}},
		{"wrong-status", func(n int) []byte { return []byte{statusHit} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				// Read the request frame header to stay plausible, then lie.
				var hdr [5]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					return
				}
				n := int(binary.LittleEndian.Uint32(hdr[1:]))
				io.CopyN(io.Discard, conn, int64(n*8))
				conn.Write(tc.resp(n))
			}()
			c, err := Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			keys := []uint64{1, 2}
			if err := c.MultiGet(keys, make([]Entry, 2), make([]bool, 2)); err == nil {
				t.Fatal("corrupt batch response accepted")
			}
		})
	}
}

// TestClientRoundTripAllocs pins the zero-alloc satellite: steady-state
// Get and Put exchanges run entirely on the pooled connection's owned
// buffers — zero heap allocations per round trip, same discipline as the
// sweep hot path.
func TestClientRoundTripAllocs(t *testing.T) {
	_, c := startServer(t, 0)
	e := Entry{PerReplica: 55, MaxGB: 7.5, Fits: true}
	if err := c.Put(3, e); err != nil { // warm the pooled conn and deadline timer
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := c.Put(3, e); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := c.Get(3); err != nil || !ok {
			t.Fatal("lost the entry mid-measurement")
		}
		if _, ok, _ := c.Get(4); ok {
			t.Fatal("phantom hit")
		}
	}); got != 0 {
		t.Errorf("steady-state Get+Put allocates %.1f times per round-trip pair, want 0", got)
	}
}

// TestBatchChunksAboveMaxBatch drives a vector larger than one frame may
// carry through the public MultiGet/MultiPut: the client must split it
// into MaxBatch-sized frames transparently and reassemble the results.
func TestBatchChunksAboveMaxBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("chunking round trip moves ~3 MB through loopback TCP")
	}
	srv, c := startServer(t, MaxBatch+1000)
	n := MaxBatch + 500
	keys := make([]uint64, n)
	ents := make([]Entry, n)
	for i := range keys {
		keys[i] = uint64(i) + 1
		ents[i] = Entry{PerReplica: float64(i), Fits: true}
	}
	before := Frames()
	if err := c.MultiPut(keys, ents); err != nil {
		t.Fatal(err)
	}
	if got := Frames() - before; got != 2 {
		t.Fatalf("oversize put used %d frames, want 2", got)
	}
	if srv.Len() != n {
		t.Fatalf("server holds %d entries, want %d", srv.Len(), n)
	}
	out := make([]Entry, n)
	ok := make([]bool, n)
	if err := c.MultiGet(keys, out, ok); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, MaxBatch - 1, MaxBatch, n - 1} {
		if !ok[i] || out[i] != ents[i] {
			t.Fatalf("key %d lost across the chunk seam: %+v ok=%v", i, out[i], ok[i])
		}
	}
}

// TestGetBatchFallback wraps a store in a plain (non-batch) Cache: the
// helpers must degrade to per-key loops with identical results.
func TestGetBatchFallback(t *testing.T) {
	plain := plainCache{NewLoopback(0)}
	keys := []uint64{1, 2, 3}
	ents := randEntries(rand.New(rand.NewSource(1)), 3)
	if err := PutBatch(plain, keys, ents); err != nil {
		t.Fatal(err)
	}
	out := make([]Entry, 4)
	ok := make([]bool, 4)
	if err := GetBatch(plain, []uint64{1, 2, 3, 4}, out, ok); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !ok[i] || !sameEntryBits(out[i], ents[i]) {
			t.Fatalf("fallback key %d: %+v ok=%v", keys[i], out[i], ok[i])
		}
	}
	if ok[3] {
		t.Fatal("fallback reported a phantom hit")
	}
	if err := GetBatch(plain, keys, out[:2], ok[:2]); err == nil {
		t.Fatal("fallback accepted disagreeing vectors")
	}
}

// plainCache hides a Loopback's batch methods so the helper fallback
// path is the one under test.
type plainCache struct{ lb *Loopback }

func (p plainCache) Get(key uint64) (Entry, bool, error) { return p.lb.Get(key) }
func (p plainCache) Put(key uint64, e Entry) error       { return p.lb.Put(key, e) }
