package dotlang

import (
	"testing"

	"github.com/darklab/mercury/internal/model"
)

// BenchmarkDotParse measures the model language front end on the
// Table 1 server description.
func BenchmarkDotParse(b *testing.B) {
	src := PrintMachine(model.DefaultServer("server"))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
