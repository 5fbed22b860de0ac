package rgmahttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"gridmon/internal/rgmacore"
	"gridmon/internal/sqlmini"
)

// Client is the producer/consumer API against an rgmad server, the shape
// of the original R-GMA client libraries ("R-GMA APIs are available in
// Java, C, C++ and Python" — and now Go).
type Client struct {
	base string
	http *http.Client
}

// NewClient targets an rgmad server at addr (host:port).
func NewClient(addr string) *Client {
	return &Client{
		base: "http://" + addr,
		http: &http.Client{Timeout: 10 * time.Second},
	}
}

func (c *Client) post(path string, req any, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("rgmahttp: %s: %s (%s)", path, resp.Status, e.Error)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

func (c *Client) get(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("rgmahttp: %s: %s (%s)", path, resp.Status, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// CreateTable declares a table with a CREATE TABLE statement.
func (c *Client) CreateTable(sql string) error {
	return c.post("/schema/createTable", map[string]string{"sql": sql}, nil)
}

// RemoteProducer is a handle to a producer resource on the server.
type RemoteProducer struct {
	c  *Client
	ID int64
}

// CreatePrimaryProducer allocates a producer with memory storage.
// Retention periods are carried as whole seconds and rounded UP, so a
// sub-second request keeps a short retention (1 s) instead of
// truncating to 0 and silently selecting the server's 30 s/60 s
// defaults; non-positive periods are an error.
func (c *Client) CreatePrimaryProducer(table string, latestRetention, historyRetention time.Duration) (*RemoteProducer, error) {
	latestSec, err := rgmacore.RetentionSeconds(latestRetention)
	if err != nil {
		return nil, err
	}
	historySec, err := rgmacore.RetentionSeconds(historyRetention)
	if err != nil {
		return nil, err
	}
	var out struct {
		Producer int64 `json:"producer"`
	}
	err = c.post("/producer/create", map[string]any{
		"table":               table,
		"latestRetentionSec":  latestSec,
		"historyRetentionSec": historySec,
	}, &out)
	if err != nil {
		return nil, err
	}
	return &RemoteProducer{c: c, ID: out.Producer}, nil
}

// Insert publishes one tuple as a SQL INSERT statement.
func (p *RemoteProducer) Insert(sql string) error {
	return p.c.post("/producer/insert", map[string]any{"producer": p.ID, "sql": sql}, nil)
}

// InsertRow formats and publishes a row for the given table schema.
func (p *RemoteProducer) InsertRow(table *sqlmini.Table, row sqlmini.Row) error {
	return p.Insert(sqlmini.FormatInsert(table, row))
}

// Close releases the producer resource.
func (p *RemoteProducer) Close() error {
	return p.c.post("/producer/close", map[string]any{"producer": p.ID}, nil)
}

// RemoteConsumer is a handle to a consumer resource on the server.
type RemoteConsumer struct {
	c  *Client
	ID int64
}

// CreateConsumer installs a query; qtype is "continuous", "latest" or
// "history".
func (c *Client) CreateConsumer(query, qtype string) (*RemoteConsumer, error) {
	var out struct {
		Consumer int64 `json:"consumer"`
	}
	if err := c.post("/consumer/create", map[string]string{"query": query, "type": qtype}, &out); err != nil {
		return nil, err
	}
	return &RemoteConsumer{c: c, ID: out.Consumer}, nil
}

// PoppedTuple is one tuple from a Pop call; cells are SQL literal forms.
type PoppedTuple struct {
	Row        []string `json:"row"`
	InsertedAt int64    `json:"insertedAtNs"`
}

// Pop polls the consumer, as the paper's subscriber did every 100 ms.
func (rc *RemoteConsumer) Pop() ([]PoppedTuple, error) {
	var out struct {
		Tuples []PoppedTuple `json:"tuples"`
	}
	if err := rc.c.get(fmt.Sprintf("/consumer/pop?id=%d", rc.ID), &out); err != nil {
		return nil, err
	}
	return out.Tuples, nil
}

// Close releases the consumer resource.
func (rc *RemoteConsumer) Close() error {
	return rc.c.post("/consumer/close", map[string]any{"consumer": rc.ID}, nil)
}

// Stats reads the server's counter snapshot.
func (c *Client) Stats() (Stats, error) {
	var out Stats
	if err := c.get("/stats", &out); err != nil {
		return Stats{}, err
	}
	return out, nil
}
