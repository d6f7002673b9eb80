package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChecksumKnownValues(t *testing.T) {
	// RFC 1071 example: 0x0001, 0xf203, 0xf4f5, 0xf6f7 sums to 0xddf2 before
	// complement.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
	if Checksum(nil) != 0xffff {
		t.Fatalf("checksum of empty data should be 0xffff")
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xab}) != ^uint16(0xab00) {
		t.Fatal("odd-length data must be padded with a zero byte")
	}
}

func TestPartialChecksumComposition(t *testing.T) {
	// Summing in pieces must equal summing at once (this is what lets the
	// payload be checksummed a single time and reused for the TCP and DSS
	// checksums, §3.3.6).
	f := func(a, b []byte) bool {
		whole := FoldChecksum(PartialChecksum(0, append(append([]byte(nil), a...), b...)))
		split := FoldChecksum(PartialChecksum(PartialChecksum(0, a), b))
		// Padding matters: only compare when the first part has even length.
		if len(a)%2 != 0 {
			return true
		}
		return whole == split
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestDSSChecksumDetectsModification(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	sum := DSSChecksum(1000, 20, uint16(len(payload)), payload)
	opt := &DSSOption{HasMapping: true, DataSeq: 1000, SubflowOffset: 20, Length: uint16(len(payload)), HasChecksum: true, Checksum: sum}
	if !VerifyDSSChecksum(opt, payload) {
		t.Fatal("unmodified payload must verify")
	}
	mod := append([]byte(nil), payload...)
	mod[3] ^= 0x20
	if VerifyDSSChecksum(opt, mod) {
		t.Fatal("modified payload must fail the DSS checksum")
	}
	// Length changes (ALG rewrites) are also detected.
	if VerifyDSSChecksum(opt, payload[:len(payload)-2]) {
		t.Fatal("truncated payload must fail the DSS checksum")
	}
}

func TestDSSChecksumQuick(t *testing.T) {
	f := func(seq uint64, off uint32, payload []byte) bool {
		if len(payload) > 65535 {
			payload = payload[:65535]
		}
		sum := DSSChecksum(DataSeq(seq), off, uint16(len(payload)), payload)
		opt := &DSSOption{HasMapping: true, DataSeq: DataSeq(seq), SubflowOffset: off, Length: uint16(len(payload)), HasChecksum: true, Checksum: sum}
		if !VerifyDSSChecksum(opt, payload) {
			return false
		}
		if len(payload) > 0 {
			mod := append([]byte(nil), payload...)
			mod[0] ^= 0x01
			if VerifyDSSChecksum(opt, mod) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPChecksumIncludesPseudoHeader(t *testing.T) {
	src := Endpoint{Addr: MakeAddr(10, 0, 0, 1), Port: 1}
	dst := Endpoint{Addr: MakeAddr(10, 0, 0, 2), Port: 2}
	hdr := make([]byte, 20)
	payload := []byte("data")
	a := TCPChecksum(src, dst, hdr, payload)
	otherSrc := Endpoint{Addr: MakeAddr(10, 0, 0, 3), Port: 1}
	b := TCPChecksum(otherSrc, dst, hdr, payload)
	if a == b {
		t.Fatal("checksum must depend on the pseudo-header addresses")
	}
}

// TestDSSChecksumPiecesMatchesContiguous checks the pieces form against the
// contiguous one for every split point of payloads of odd and even length,
// for three-way splits with odd-length middles, and for empty pieces.
func TestDSSChecksumPiecesMatchesContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 101, 1459, 1460} {
		data := make([]byte, n)
		rng.Read(data)
		seq, off := DataSeq(rng.Uint64()), rng.Uint32()
		want := DSSChecksum(seq, off, uint16(n), data)
		for i := 0; i <= n; i++ {
			if got := DSSChecksumPieces(seq, off, uint16(n), [][]byte{data[:i], data[i:]}); got != want {
				t.Fatalf("len=%d split=%d: %#04x, contiguous %#04x", n, i, got, want)
			}
			j := i + (n-i)/2
			if got := DSSChecksumPieces(seq, off, uint16(n), [][]byte{data[:i], nil, data[i:j], data[j:]}); got != want {
				t.Fatalf("len=%d splits=%d,%d: %#04x, contiguous %#04x", n, i, j, got, want)
			}
		}
	}
}

// TestDSSChecksumPiecesQuick splits random payloads into random pieces.
func TestDSSChecksumPiecesQuick(t *testing.T) {
	f := func(seq uint64, off uint32, data []byte, cuts []uint16) bool {
		var pieces [][]byte
		rest := data
		for _, c := range cuts {
			k := int(c) % (len(rest) + 1)
			pieces = append(pieces, rest[:k])
			rest = rest[k:]
		}
		pieces = append(pieces, rest)
		n := uint16(len(data))
		return DSSChecksumPieces(DataSeq(seq), off, n, pieces) == DSSChecksum(DataSeq(seq), off, n, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// refPartialChecksum is the RFC 1071 definition the optimized kernel must
// match: big-endian 16-bit words (an odd trailing byte padded with zero)
// added to sum with a 64-bit accumulator that cannot overflow.
func refPartialChecksum(sum uint64, data []byte) uint64 {
	for i := 0; i < len(data); i += 2 {
		w := uint64(data[i]) << 8
		if i+1 < len(data) {
			w |= uint64(data[i+1])
		}
		sum += w
	}
	return sum
}

// refFold folds a 64-bit reference sum and complements it, like FoldChecksum.
func refFold(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// FuzzPartialChecksum checks PartialChecksum differentially against the
// RFC 1071 16-bit reference: any length, any start offset into the buffer
// (odd ones shift every word by a byte), a nonzero initial sum, and all-0xff
// payloads whose every addition carries.
func FuzzPartialChecksum(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 31, 32, 33, 63, 64, 65, 1459, 1460, 8960} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data, uint8(0), uint32(0), false)
		f.Add(data, uint8(1), uint32(0xbeef), false)
		f.Add(data, uint8(3), uint32(0xffffff), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, off uint8, sum uint32, storm bool) {
		if storm {
			for i := range data {
				data[i] = 0xff
			}
		}
		if start := int(off % 8); start <= len(data) {
			data = data[start:]
		}
		// Callers pass a folded or pseudo-header sum; keep it below 2^24 so
		// the 32-bit running sum cannot wrap for any payload length here.
		sum &= 0xffffff
		got := FoldChecksum(PartialChecksum(sum, data))
		if want := refFold(refPartialChecksum(uint64(sum), data)); got != want {
			t.Fatalf("len=%d sum=%#x: checksum %#04x, reference %#04x", len(data), sum, got, want)
		}
	})
}
