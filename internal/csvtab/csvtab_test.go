package csvtab

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

type row struct {
	N  int
	U  uint64
	D  time.Duration
	OK bool
}

var errTag = errors.New("tagged")

var testCSV = Table[row]{Name: "test", Tag: errTag, Cols: []Column[row]{
	IntMin("n", 1, func(r *row) *int { return &r.N }),
	Uint("u", func(r *row) *uint64 { return &r.U }),
	Micros("d_us", func(r *row) *time.Duration { return &r.D }),
	Bool("ok", func(r *row) *bool { return &r.OK }),
}}

func TestReadTrimsFields(t *testing.T) {
	rows, err := testCSV.Read(strings.NewReader("n,u,d_us,ok\n\n 2 ,\t18446744073709551615, 7 , true\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := row{N: 2, U: 18446744073709551615, D: 7 * time.Microsecond, OK: true}
	if len(rows) != 1 || rows[0] != want {
		t.Fatalf("rows %+v, want [%+v]", rows, want)
	}
}

// TestReadRejections checks that every malformed input names its line
// and carries the table's tag, while an I/O failure stays untagged.
func TestReadRejections(t *testing.T) {
	check := func(r *row) error {
		if r.N == 3 {
			return errors.New("no threes")
		}
		return nil
	}
	cases := map[string]string{
		"wrong header":      "n,u,d\n",
		"short row":         "n,u,d_us,ok\n1,2,3\n",
		"below min":         "n,u,d_us,ok\n0,2,3,true\n",
		"negative uint":     "n,u,d_us,ok\n1,-2,3,true\n",
		"negative duration": "n,u,d_us,ok\n1,2,-3,true\n",
		"duration overflow": "n,u,d_us,ok\n1,2,9223372036854776,true\n",
		"check":             "n,u,d_us,ok\n3,2,3,true\n",
	}
	for name, in := range cases {
		_, err := testCSV.Read(strings.NewReader(in), check)
		if err == nil || !errors.Is(err, errTag) || !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: err %v, want a tagged error naming its line", name, err)
		}
	}
	if _, err := testCSV.Read(strings.NewReader(""), nil); !errors.Is(err, errTag) {
		t.Errorf("empty input: err %v, want tagged", err)
	}
	_, err := testCSV.Read(iotest.ErrReader(io.ErrUnexpectedEOF), nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, errTag) {
		t.Errorf("I/O failure: err %v, want untagged io.ErrUnexpectedEOF", err)
	}
}
