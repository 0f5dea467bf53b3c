package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Every value the kv workloads write encodes its key, its writer and a
// sequence number under a checksum, so any answer can be checked:
//
//	[0:4]     key id (LE)
//	[4:8]     writer (0 = preload, n = connection n)
//	[8:16]    sequence number, unique per writer
//	[16:248]  filler: one of 64 text templates chosen by key id
//	[248:256] FNV-1a 64 over the key string and bytes [0:248]
//
// The filler lines repeat across values that share a template, so the
// store's content dedup has something to find, while the header and
// checksum lines keep every version distinct.
const (
	valueLen   = 256
	fillerOff  = 16
	sumOff     = 248
	nTemplates = 64
)

// valueCodec holds the seed-derived filler templates.
type valueCodec struct {
	templates [nTemplates][sumOff - fillerOff]byte
}

func newValueCodec(seed int64) *valueCodec {
	rng := rand.New(rand.NewSource(seed ^ 0x7e3a91))
	words := []string{"user", "session", "cart", "item", "price", "region", "eu", "us",
		"active", "true", "false", "null", "count", "tags", "profile", "ts"}
	c := &valueCodec{}
	for t := range c.templates {
		var buf []byte
		for len(buf) < len(c.templates[t]) {
			buf = fmt.Appendf(buf, `"%s":"%s",`, words[rng.Intn(len(words))], words[rng.Intn(len(words))])
		}
		copy(c.templates[t][:], buf)
	}
	return c
}

// keyName is the protocol key of key id.
func keyName(id int) string { return fmt.Sprintf("k%06d", id) }

// version identifies one written value.
type version struct {
	writer uint32
	seq    uint64
}

func checksum(key string, body []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write(body)
	return h.Sum64()
}

// encode returns the value for key id written by ver.
func (c *valueCodec) encode(id int, ver version) []byte {
	v := make([]byte, valueLen)
	binary.LittleEndian.PutUint32(v[0:], uint32(id))
	binary.LittleEndian.PutUint32(v[4:], ver.writer)
	binary.LittleEndian.PutUint64(v[8:], ver.seq)
	copy(v[fillerOff:sumOff], c.templates[id%nTemplates][:])
	binary.LittleEndian.PutUint64(v[sumOff:], checksum(keyName(id), v[:sumOff]))
	return v
}

// decode checks that v is an intact value of key id and returns its
// version.
func (c *valueCodec) decode(id int, v []byte) (version, bool) {
	if len(v) != valueLen || binary.LittleEndian.Uint32(v[0:]) != uint32(id) {
		return version{}, false
	}
	if binary.LittleEndian.Uint64(v[sumOff:]) != checksum(keyName(id), v[:sumOff]) {
		return version{}, false
	}
	return version{writer: binary.LittleEndian.Uint32(v[4:]), seq: binary.LittleEndian.Uint64(v[8:])}, true
}

// lastOp is a writer's last acknowledged operation on one key.
type lastOp struct {
	seq     uint64
	deleted bool
}

// writerModel is what one connection knows about its own writes: the
// last acknowledged set, cas or delete per key.
type writerModel struct {
	id   uint32
	seq  uint64
	last map[int]lastOp
}

func newWriterModel(id uint32) *writerModel {
	return &writerModel{id: id, last: map[int]lastOp{}}
}

// next allocates the version of the writer's next value.
func (w *writerModel) next() version {
	w.seq++
	return version{writer: w.id, seq: w.seq}
}

// acked records an acknowledged write (or delete) of key id.
func (w *writerModel) acked(id int, seq uint64, deleted bool) {
	w.last[id] = lastOp{seq: seq, deleted: deleted}
}

// readOK judges a read of key id that returned ver (found) or nothing:
// a value this writer wrote must be no older than its last acknowledged
// write or delete of the key. Other writers' values and misses cannot
// be ordered against this writer's acks, so only their integrity (done
// by decode) is checked.
func (w *writerModel) readOK(id int, ver version, found bool) bool {
	if !found || ver.writer != w.id {
		return true
	}
	l, ok := w.last[id]
	return !ok || ver.seq >= l.seq
}

// finalOK judges the final state of key id after every writer stopped
// with all its operations acknowledged: a present value must be some
// writer's last write of the key (or the preload, if nobody touched
// it); an absent key needs some writer whose last operation deleted it.
func finalOK(writers []*writerModel, id int, ver version, found bool) bool {
	touched := false
	for _, w := range writers {
		l, ok := w.last[id]
		if !ok {
			continue
		}
		touched = true
		if !found && l.deleted {
			return true
		}
		if found && !l.deleted && ver.writer == w.id && ver.seq == l.seq {
			return true
		}
	}
	return found && !touched && ver.writer == 0
}
