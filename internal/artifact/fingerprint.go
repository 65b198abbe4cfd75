package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/spaceweather"
)

// Fingerprint is the content address of an artifact: a SHA-256 over a
// canonical, fixed-order serialization of every input that can change the
// artifact's bytes — and nothing else. Parallelism knobs are deliberately
// excluded: the pipeline is bit-identical at every worker count, so two runs
// that differ only in workers share one cache entry.
type Fingerprint [sha256.Size]byte

// String returns the lowercase hex form used in cache file names.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// hasher feeds fields into SHA-256 in a fixed order with fixed-width
// encodings, so the digest depends only on the values and the order the
// fields are declared in, never on memory layout, map order, or platform.
type hasher struct {
	h   hash.Hash
	buf [8]byte
}

func newHasher(domain string) *hasher {
	h := &hasher{h: sha256.New()}
	h.str(domain)
	h.u64(SchemaVersion)
	return h
}

func (h *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

func (h *hasher) i64(v int64)      { h.u64(uint64(v)) }
func (h *hasher) fp(f Fingerprint) { h.h.Write(f[:]) }

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	h.h.Write([]byte(s))
}

var timeType = reflect.TypeFor[time.Time]()

// config hashes a config value field by field in declaration order: ints
// as i64, float64s as their bits, bools as 0/1, strings length-prefixed,
// slices count-prefixed, time.Time as Unix seconds, and nested structs
// field by field. Fields named Parallelism are skipped, because output is
// bit-identical at every worker count. Any other kind panics, so a config
// cannot grow a field its fingerprint would silently ignore.
func (h *hasher) config(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.i64(v.Int())
	case reflect.Float64:
		h.u64(math.Float64bits(v.Float()))
	case reflect.Bool:
		if v.Bool() {
			h.u64(1)
		} else {
			h.u64(0)
		}
	case reflect.String:
		h.str(v.String())
	case reflect.Slice:
		h.u64(uint64(v.Len()))
		for i := range v.Len() {
			h.config(v.Index(i))
		}
	case reflect.Struct:
		if v.Type() == timeType {
			h.i64(v.Interface().(time.Time).Unix())
			return
		}
		for i := range v.NumField() {
			if v.Type().Field(i).Name != "Parallelism" {
				h.config(v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("artifact: cannot fingerprint a %s field", v.Type()))
	}
}

func (h *hasher) sum() Fingerprint {
	var f Fingerprint
	h.h.Sum(f[:0])
	metricFingerprints.Inc()
	return f
}

// FingerprintWeather names a spaceweather generation run: every field of the
// config, including the scripted storms and overrides.
func FingerprintWeather(cfg spaceweather.Config) Fingerprint {
	h := newHasher("weather")
	h.config(reflect.ValueOf(cfg))
	return h.sum()
}

// FingerprintFleet names a constellation run: the weather that drove it plus
// every simulation parameter except the runtime-only Parallelism knob.
func FingerprintFleet(weather Fingerprint, cfg constellation.Config) Fingerprint {
	h := newHasher("fleet")
	h.fp(weather)
	h.config(reflect.ValueOf(cfg))
	return h.sum()
}

// FingerprintDataset names a built dataset: the fleet archive it was built
// from plus every cleaning/analysis parameter except the runtime-only
// Parallelism knob.
func FingerprintDataset(fleet Fingerprint, cfg core.Config) Fingerprint {
	h := newHasher("dataset")
	h.fp(fleet)
	h.config(reflect.ValueOf(cfg))
	return h.sum()
}

// FingerprintSegment names one chunk's share of a dataset build: the dataset
// fingerprint (which already chains weather → fleet → cleaning config) plus
// the chunk's identity in the partition. Chunk size participates through the
// bounds, so changing it re-keys every segment — two partitions never share
// segment entries, which is what keeps a partial cache population safe.
func FingerprintSegment(dataset Fingerprint, chunk, lo, hi int) Fingerprint {
	h := newHasher("segment")
	h.fp(dataset)
	h.i64(int64(chunk))
	h.i64(int64(lo))
	h.i64(int64(hi))
	return h.sum()
}
