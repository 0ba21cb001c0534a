package api

import (
	"regexp"
	"strconv"
	"testing"

	"pds2/internal/telemetry"
)

// logSeqRE and logTimeRE find the parts of a /v1/logs body that depend
// on the process rather than the list contract: the wall clock, and
// sequence numbers shared with every other record the process logged.
var (
	logSeqRE  = regexp.MustCompile(`"(seq":|next":")(\d+)`)
	logTimeRE = regexp.MustCompile(`"time_ns":\d+`)
)

// TestListRoutesGolden pins the wire bytes of every list route on the
// list fixture: the first, middle and last page of a limit=1 walk, the
// default page, a bad cursor and a bad limit. /v1/logs bodies have
// their timestamps zeroed and their sequence numbers made relative to
// the fixture's first record.
func TestListRoutesGolden(t *testing.T) {
	nd := newListNode(t)
	var logBase uint64
	for _, e := range telemetry.DefaultLog().Events() {
		if e.Component == listLogComponent {
			logBase = e.Seq - 1
			break
		}
	}
	normalize := func(rt listRoute, body []byte) string {
		if rt.path != "/v1/logs" {
			return string(body)
		}
		body = logTimeRE.ReplaceAll(body, []byte(`"time_ns":0`))
		return logSeqRE.ReplaceAllStringFunc(string(body), func(m string) string {
			sub := logSeqRE.FindStringSubmatch(m)
			n, _ := strconv.ParseUint(sub[2], 10, 64)
			return `"` + sub[1] + strconv.FormatUint(n-logBase, 10)
		})
	}
	var got []goldenPage
	for _, rt := range listRoutes {
		var walk []listPage
		for after := ""; ; {
			params := "limit=1"
			if after != "" {
				params += "&after=" + after
			}
			p := nd.fetch(t, rt, params)
			walk = append(walk, p)
			if p.next == "" {
				break
			}
			after = p.next
		}
		pages := []struct {
			name string
			p    listPage
		}{
			{"limit=1 first", walk[0]},
			{"limit=1 middle", walk[len(walk)/2]},
			{"limit=1 last", walk[len(walk)-1]},
			{"default", nd.fetch(t, rt, "")},
			{"bad cursor", nd.fetch(t, rt, "after=-1")},
			{"bad limit", nd.fetch(t, rt, "limit=abc")},
		}
		for _, pg := range pages {
			got = append(got, goldenPage{rt.path + " " + pg.name, pg.p.status, normalize(rt, pg.p.body)})
		}
	}
	if len(got) != len(listGolden) {
		t.Fatalf("%d golden pages, want %d", len(got), len(listGolden))
	}
	for i, g := range got {
		if g != listGolden[i] {
			t.Errorf("%s:\n got %d %q\nwant %d %q", g.name, g.status, g.body, listGolden[i].status, listGolden[i].body)
		}
	}
}

type goldenPage struct {
	name   string
	status int
	body   string
}

// listGolden is the list routes' wire format on the list fixture: a
// difference is a wire change, not a literal to update.
var listGolden = []goldenPage{
	{"/v1/events limit=1 first", 200, "{\"items\":[{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"ActorRegistered\",\"data\":\"BQBbr6AaUGiHHrwSgsFGBvaxr8SdAwAAAAhjb25zdW1lcg==\"}],\"next\":\"1\"}\n"},
	{"/v1/events limit=1 middle", 200, "{\"items\":[{\"contract\":\"b9eb859af2109b6e337da7c51d874438678a9039\",\"topic\":\"TransferNFT\",\"data\":\"BQAAAAAAAAAAAAAAAAAAAAAAAAAABQBbr6AaUGiHHrwSgsFGBvaxr8SdBoCjNq/yS++dRboTvLfWkBaWkaTmpp/tsIglCaF3zQ37\"}],\"next\":\"9\"}\n"},
	{"/v1/events limit=1 last", 200, "{\"items\":[{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"WorkloadRegistered\",\"data\":\"Be4CDFTa0XPZf7c7R1WARkhTGVlsBrckYZ6p/Yvr0OQNrELFhhWpruIP68j2EPhL0VSfC1bO\"}]}\n"},
	{"/v1/events default", 200, "{\"items\":[{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"ActorRegistered\",\"data\":\"BQBbr6AaUGiHHrwSgsFGBvaxr8SdAwAAAAhjb25zdW1lcg==\"},{\"contract\":\"b9eb859af2109b6e337da7c51d874438678a9039\",\"topic\":\"TransferNFT\",\"data\":\"BQAAAAAAAAAAAAAAAAAAAAAAAAAABQBbr6AaUGiHHrwSgsFGBvaxr8SdBgd7C1QZWr/8TfZSuZvZrvL3hB+BVC8OrmQ/ms0C0Wv7\"},{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"DataRegistered\",\"data\":\"Bgd7C1QZWr/8TfZSuZvZrvL3hB+BVC8OrmQ/ms0C0Wv7BQBbr6AaUGiHHrwSgsFGBvaxr8Sd\"},{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"PolicySet\",\"data\":\"Bgd7C1QZWr/8TfZSuZvZrvL3hB+BVC8OrmQ/ms0C0Wv7BQBbr6AaUGiHHrwSgsFGBvaxr8SdBAAAADcCAAAAAAAAAAEDAAAABXRyYWluAgAAAAAAAAAAAgAAAAAAAAAAAgAAAAAAAAAAAgAAAAAAAAAA\"},{\"contract\":\"b9eb859af2109b6e337da7c51d874438678a9039\",\"topic\":\"TransferNFT\",\"data\":\"BQAAAAAAAAAAAAAAAAAAAAAAAAAABQBbr6AaUGiHHrwSgsFGBvaxr8SdBrVA5j2sfMc0WB8Ix4AxQPhrbGDq7Zxw6amhPkxmLds3\"},{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"DataRegistered\",\"data\":\"BrVA5j2sfMc0WB8Ix4AxQPhrbGDq7Zxw6amhPkxmLds3BQBbr6AaUGiHHrwSgsFGBvaxr8Sd\"},{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"PolicyDecision\",\"data\":\"Bgd7C1QZWr/8TfZSuZvZrvL3hB+BVC8OrmQ/ms0C0Wv7BQBbr6AaUGiHHrwSgsFGBvaxr8SdAwAAAAVtYXRjaAMAAAAFdHJhaW4DAAAAAAIAAAAAAAAAAQIAAAAAAAAACQIAAAAAAAAAAAMAAAACb2sDAAAAAA==\"},{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"WorkloadRegistered\",\"data\":\"BRkCnQp8lJ6sIw90Wu/5Xe4yw9kXBhy8rsNNF5PwCX3LMKE4Eq2wndhdIqFswDLEN2xXJAq6\"},{\"contract\":\"b9eb859af2109b6e337da7c51d874438678a9039\",\"topic\":\"TransferNFT\",\"data\":\"BQAAAAAAAAAAAAAAAAAAAAAAAAAABQBbr6AaUGiHHrwSgsFGBvaxr8SdBoCjNq/yS++dRboTvLfWkBaWkaTmpp/tsIglCaF3zQ37\"},{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"DataRegistered\",\"data\":\"BoCjNq/yS++dRboTvLfWkBaWkaTmpp/tsIglCaF3zQ37BQBbr6AaUGiHHrwSgsFGBvaxr8Sd\"},{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"PolicyDecision\",\"data\":\"Bgd7C1QZWr/8TfZSuZvZrvL3hB+BVC8OrmQ/ms0C0Wv7BQBbr6AaUGiHHrwSgsFGBvaxr8SdAwAAAAVtYXRjaAMAAAAFdHJhaW4DAAAAAAIAAAAAAAAAAQIAAAAAAAAADQIAAAAAAAAAAAMAAAACb2sDAAAAAA==\"},{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"WorkloadRegistered\",\"data\":\"BRgPWQxvOW/Zhi1CTqxvLS/uVI2aBkhKtYH1prwYHGJRjLMXSynb1mSKO8ToGd5RcrjL9qaX\"},{\"contract\":\"b9eb859af2109b6e337da7c51d874438678a9039\",\"topic\":\"TransferNFT\",\"data\":\"BQAAAAAAAAAAAAAAAAAAAAAAAAAABQBbr6AaUGiHHrwSgsFGBvaxr8SdBp18NtZueXfP7Wt/78Coa2xpV0ve3YPpjHaFclT158YT\"},{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"DataRegistered\",\"data\":\"Bp18NtZueXfP7Wt/78Coa2xpV0ve3YPpjHaFclT158YTBQBbr6AaUGiHHrwSgsFGBvaxr8Sd\"},{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"PolicyDecision\",\"data\":\"Bgd7C1QZWr/8TfZSuZvZrvL3hB+BVC8OrmQ/ms0C0Wv7BQBbr6AaUGiHHrwSgsFGBvaxr8SdAwAAAAVtYXRjaAMAAAAFdHJhaW4DAAAAAAIAAAAAAAAAAQIAAAAAAAAAEQIAAAAAAAAAAAMAAAACb2sDAAAAAA==\"},{\"contract\":\"4f93af64e554abf8750d617222528c29f7981c12\",\"topic\":\"WorkloadRegistered\",\"data\":\"Be4CDFTa0XPZf7c7R1WARkhTGVlsBrckYZ6p/Yvr0OQNrELFhhWpruIP68j2EPhL0VSfC1bO\"}]}\n"},
	{"/v1/events bad cursor", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad cursor \\\"-1\\\"\",\"retryable\":false}}\n"},
	{"/v1/events bad limit", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad limit \\\"abc\\\"\",\"retryable\":false}}\n"},
	{"/v1/policies/decisions limit=1 first", 200, "{\"items\":[{\"data_id\":\"077b0b54195abffc4df652b99bd9aef2f7841f81542f0eae643f9acd02d16bfb\",\"subject\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"layer\":\"match\",\"class\":\"train\",\"aggregation\":1,\"height\":9,\"invocations\":0,\"code\":\"ok\",\"allowed\":true}],\"next\":\"1\"}\n"},
	{"/v1/policies/decisions limit=1 middle", 200, "{\"items\":[{\"data_id\":\"077b0b54195abffc4df652b99bd9aef2f7841f81542f0eae643f9acd02d16bfb\",\"subject\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"layer\":\"match\",\"class\":\"train\",\"aggregation\":1,\"height\":13,\"invocations\":0,\"code\":\"ok\",\"allowed\":true}],\"next\":\"2\"}\n"},
	{"/v1/policies/decisions limit=1 last", 200, "{\"items\":[{\"data_id\":\"077b0b54195abffc4df652b99bd9aef2f7841f81542f0eae643f9acd02d16bfb\",\"subject\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"layer\":\"match\",\"class\":\"train\",\"aggregation\":1,\"height\":17,\"invocations\":0,\"code\":\"ok\",\"allowed\":true}]}\n"},
	{"/v1/policies/decisions default", 200, "{\"items\":[{\"data_id\":\"077b0b54195abffc4df652b99bd9aef2f7841f81542f0eae643f9acd02d16bfb\",\"subject\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"layer\":\"match\",\"class\":\"train\",\"aggregation\":1,\"height\":9,\"invocations\":0,\"code\":\"ok\",\"allowed\":true},{\"data_id\":\"077b0b54195abffc4df652b99bd9aef2f7841f81542f0eae643f9acd02d16bfb\",\"subject\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"layer\":\"match\",\"class\":\"train\",\"aggregation\":1,\"height\":13,\"invocations\":0,\"code\":\"ok\",\"allowed\":true},{\"data_id\":\"077b0b54195abffc4df652b99bd9aef2f7841f81542f0eae643f9acd02d16bfb\",\"subject\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"layer\":\"match\",\"class\":\"train\",\"aggregation\":1,\"height\":17,\"invocations\":0,\"code\":\"ok\",\"allowed\":true}]}\n"},
	{"/v1/policies/decisions bad cursor", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad cursor \\\"-1\\\"\",\"retryable\":false}}\n"},
	{"/v1/policies/decisions bad limit", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad limit \\\"abc\\\"\",\"retryable\":false}}\n"},
	{"/v1/workloads limit=1 first", 200, "{\"items\":[{\"address\":\"180f590c6f396fd9862d424eac6f2d2fee548d9a\",\"state\":\"open\"}],\"next\":\"180f590c6f396fd9862d424eac6f2d2fee548d9a\"}\n"},
	{"/v1/workloads limit=1 middle", 200, "{\"items\":[{\"address\":\"19029d0a7c949eac230f745aeff95dee32c3d917\",\"state\":\"open\"}],\"next\":\"19029d0a7c949eac230f745aeff95dee32c3d917\"}\n"},
	{"/v1/workloads limit=1 last", 200, "{\"items\":[{\"address\":\"ee020c54dad173d97fb73b47558046485319596c\",\"state\":\"open\"}]}\n"},
	{"/v1/workloads default", 200, "{\"items\":[{\"address\":\"180f590c6f396fd9862d424eac6f2d2fee548d9a\",\"state\":\"open\"},{\"address\":\"19029d0a7c949eac230f745aeff95dee32c3d917\",\"state\":\"open\"},{\"address\":\"ee020c54dad173d97fb73b47558046485319596c\",\"state\":\"open\"}]}\n"},
	{"/v1/workloads bad cursor", 200, "{\"items\":[{\"address\":\"180f590c6f396fd9862d424eac6f2d2fee548d9a\",\"state\":\"open\"},{\"address\":\"19029d0a7c949eac230f745aeff95dee32c3d917\",\"state\":\"open\"},{\"address\":\"ee020c54dad173d97fb73b47558046485319596c\",\"state\":\"open\"}]}\n"},
	{"/v1/workloads bad limit", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad limit \\\"abc\\\"\",\"retryable\":false}}\n"},
	{"/v1/datasets limit=1 first", 200, "{\"items\":[{\"id\":\"077b0b54195abffc4df652b99bd9aef2f7841f81542f0eae643f9acd02d16bfb\",\"owner\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"has_policy\":true,\"uses\":0}],\"next\":\"077b0b54195abffc4df652b99bd9aef2f7841f81542f0eae643f9acd02d16bfb\"}\n"},
	{"/v1/datasets limit=1 middle", 200, "{\"items\":[{\"id\":\"9d7c36d66e7977cfed6b7fefc0a86b6c69574bdedd83e98c76857254f5e7c613\",\"owner\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"has_policy\":false,\"uses\":0}],\"next\":\"9d7c36d66e7977cfed6b7fefc0a86b6c69574bdedd83e98c76857254f5e7c613\"}\n"},
	{"/v1/datasets limit=1 last", 200, "{\"items\":[{\"id\":\"b540e63dac7cc734581f08c7803140f86b6c60eaed9c70e9a9a13e4c662ddb37\",\"owner\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"has_policy\":false,\"uses\":0}]}\n"},
	{"/v1/datasets default", 200, "{\"items\":[{\"id\":\"077b0b54195abffc4df652b99bd9aef2f7841f81542f0eae643f9acd02d16bfb\",\"owner\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"has_policy\":true,\"uses\":0},{\"id\":\"80a336aff24bef9d45ba13bcb7d690169691a4e6a69fedb0882509a177cd0dfb\",\"owner\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"has_policy\":false,\"uses\":0},{\"id\":\"9d7c36d66e7977cfed6b7fefc0a86b6c69574bdedd83e98c76857254f5e7c613\",\"owner\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"has_policy\":false,\"uses\":0},{\"id\":\"b540e63dac7cc734581f08c7803140f86b6c60eaed9c70e9a9a13e4c662ddb37\",\"owner\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"has_policy\":false,\"uses\":0}]}\n"},
	{"/v1/datasets bad cursor", 200, "{\"items\":[{\"id\":\"077b0b54195abffc4df652b99bd9aef2f7841f81542f0eae643f9acd02d16bfb\",\"owner\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"has_policy\":true,\"uses\":0},{\"id\":\"80a336aff24bef9d45ba13bcb7d690169691a4e6a69fedb0882509a177cd0dfb\",\"owner\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"has_policy\":false,\"uses\":0},{\"id\":\"9d7c36d66e7977cfed6b7fefc0a86b6c69574bdedd83e98c76857254f5e7c613\",\"owner\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"has_policy\":false,\"uses\":0},{\"id\":\"b540e63dac7cc734581f08c7803140f86b6c60eaed9c70e9a9a13e4c662ddb37\",\"owner\":\"005bafa01a5068871ebc1282c14606f6b1afc49d\",\"has_policy\":false,\"uses\":0}]}\n"},
	{"/v1/datasets bad limit", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad limit \\\"abc\\\"\",\"retryable\":false}}\n"},
	{"/v1/logs limit=1 first", 200, "{\"components\":[\"api\",\"faults\",\"gossip\",\"ledger\",\"listtest\",\"market\",\"tee\"],\"events\":[{\"seq\":1,\"time_ns\":0,\"level\":\"info\",\"component\":\"listtest\",\"msg\":\"entry\",\"fields\":[{\"k\":\"n\",\"v\":\"4\"}]}],\"next\":\"1\"}\n"},
	{"/v1/logs limit=1 middle", 200, "{\"components\":[\"api\",\"faults\",\"gossip\",\"ledger\",\"listtest\",\"market\",\"tee\"],\"events\":[{\"seq\":2,\"time_ns\":0,\"level\":\"info\",\"component\":\"listtest\",\"msg\":\"entry\",\"fields\":[{\"k\":\"n\",\"v\":\"8\"}]}],\"next\":\"2\"}\n"},
	{"/v1/logs limit=1 last", 200, "{\"components\":[\"api\",\"faults\",\"gossip\",\"ledger\",\"listtest\",\"market\",\"tee\"],\"events\":[{\"seq\":3,\"time_ns\":0,\"level\":\"info\",\"component\":\"listtest\",\"msg\":\"entry\",\"fields\":[{\"k\":\"n\",\"v\":\"12\"}]}]}\n"},
	{"/v1/logs default", 200, "{\"components\":[\"api\",\"faults\",\"gossip\",\"ledger\",\"listtest\",\"market\",\"tee\"],\"events\":[{\"seq\":1,\"time_ns\":0,\"level\":\"info\",\"component\":\"listtest\",\"msg\":\"entry\",\"fields\":[{\"k\":\"n\",\"v\":\"4\"}]},{\"seq\":2,\"time_ns\":0,\"level\":\"info\",\"component\":\"listtest\",\"msg\":\"entry\",\"fields\":[{\"k\":\"n\",\"v\":\"8\"}]},{\"seq\":3,\"time_ns\":0,\"level\":\"info\",\"component\":\"listtest\",\"msg\":\"entry\",\"fields\":[{\"k\":\"n\",\"v\":\"12\"}]}]}\n"},
	{"/v1/logs bad cursor", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad cursor \\\"-1\\\"\",\"retryable\":false}}\n"},
	{"/v1/logs bad limit", 400, "{\"error\":{\"code\":\"bad_request\",\"message\":\"bad limit \\\"abc\\\"\",\"retryable\":false}}\n"},
}
