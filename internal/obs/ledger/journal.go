package ledger

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Journal is the append-only JSONL file under the run ledger and the
// jobs store, and the one place their crash contract is kept:
//
//   - One JSON object per line, marshalled once and written with a
//     single Write call under the journal's mutex, so concurrent
//     appenders interleave only at line granularity and a crash can
//     corrupt at most the final line.
//   - Open heals a torn tail: a file that ends without a newline had
//     its writer die mid-line, and the fragment is terminated so it
//     stays a line of its own instead of fusing with the next append.
//   - Scan hands every line to the caller, who skips what does not
//     parse, so a torn line is harmless rather than fatal.
//   - With a rotation budget, an append that would push the file past
//     it first renames the file to <path>.1 (replacing any previous
//     generation); Scan reads <path>.1, then <path>.
type Journal struct {
	mu       sync.Mutex
	path     string
	f        *os.File // nil once closed
	size     int64
	rotateAt int64 // ≤ 0: never rotate
}

// OpenJournal opens (creating if needed) the journal at path and heals
// a torn tail. rotateAt ≤ 0 never rotates.
func OpenJournal(path string, rotateAt int64) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: stat %s: %w", path, err)
	}
	j := &Journal{path: path, f: f, size: st.Size(), rotateAt: rotateAt}
	if j.size > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], j.size-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, fmt.Errorf("journal: heal %s: %w", path, err)
			}
			j.size++
		}
	}
	return j, nil
}

// Append writes v as one JSON line, rotating first when the line would
// push the file past the budget.
func (j *Journal) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	if j.rotateAt > 0 && j.size > 0 && j.size+int64(len(line)) > j.rotateAt {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal: append %s: %w", j.path, err)
	}
	j.size += int64(len(line))
	return nil
}

func (j *Journal) rotateLocked() error {
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: rotate close: %w", err)
	}
	j.f = nil
	if err := os.Rename(j.path, j.path+".1"); err != nil {
		return fmt.Errorf("journal: rotate rename: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotate reopen: %w", err)
	}
	j.f, j.size = f, 0
	return nil
}

// Close syncs and closes the file. Closing twice is a no-op.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Scan calls fn with every non-empty line of the journal at path, the
// rotated generation <path>.1 first. A missing file reads as empty. fn
// must not keep line past its return. A line over 16 MB stops the scan
// with the scanner's error.
func Scan(path string, fn func(line []byte)) error {
	for _, p := range []string{path + ".1", path} {
		f, err := os.Open(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("journal: read %s: %w", p, err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			if len(sc.Bytes()) > 0 {
				fn(sc.Bytes())
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return fmt.Errorf("journal: read %s: %w", p, err)
		}
	}
	return nil
}
