package synth

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeResult feeds arbitrary bytes to the cache's gob format, as a
// disk store or a peer may hand them back. Neither DecodeResult nor a
// disk cache holding the bytes as <key>.gob may panic; GetLocal must hit
// exactly when DecodeResult succeeds; and a decoded result must encode
// to bytes that decode and encode to the same bytes again (bytes, not
// DeepEqual, since a NaN cost never equals itself).
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		res, decodeErr := DecodeResult(bytes.NewReader(data))

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "k.gob"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := NewCache(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, hit := c.GetLocal("k"); hit != (decodeErr == nil) {
			t.Fatalf("GetLocal hit %v, DecodeResult error %v", hit, decodeErr)
		}
		if decodeErr != nil {
			return
		}

		var first, second bytes.Buffer
		if err := EncodeResult(&first, res); err != nil {
			t.Fatalf("decoded result does not encode: %v", err)
		}
		again, err := DecodeResult(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if err := EncodeResult(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encode → decode → encode changed the bytes:\n%x\n%x", first.Bytes(), second.Bytes())
		}
	})
}

// TestDecodeResultRejectsKeyVersion4: a cache entry written under key
// version 4, whose Sizing travelled as an interface value, does not
// decode into today's struct-typed Sizing. The key bump keeps such an
// entry from being looked up at all; this pins that it could not be
// served even so. The entry is FuzzDecodeResult's seed.
func TestDecodeResultRejectsKeyVersion4(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeResult", "key_version_4"))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(string(blob), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("seed is not a fuzz corpus entry: %.40q", blob)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := DecodeResult(strings.NewReader(data)); err == nil {
		t.Fatalf("a version-4 entry decoded: %+v", res)
	}
}
