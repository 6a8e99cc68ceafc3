//! Byte identity of result frames: `Response::encode` for `Cypher`,
//! `Sparql` and `Profile` frames, the frames that carry rows.
//!
//! Two checks hold the encoder to the wire format:
//! - golden lines, recorded from the encoder that serialised a
//!   `json::Json` tree per frame, over a fixed corpus: `"`, `\`, every byte
//!   0x00–0x1f and DEL, 2-, 3- and 4-byte UTF-8, empty strings, NULL cells,
//!   zero rows and zero columns;
//! - a property test over random rows: the line equals the serialisation
//!   of the `Json` tree built here, and `Response::decode` gives the
//!   response back.

use s3pg_query::profile::PlanNode;
use s3pg_rdf::rng::XorShiftRng;
use s3pg_server::json::Json;
use s3pg_server::protocol::plan_to_json;
use s3pg_server::Response;

/// Every byte below 0x20, then DEL.
fn controls() -> String {
    (0u8..0x20)
        .chain([0x7f])
        .map(char::from)
        .collect::<String>()
}

fn corpus_rows() -> Vec<Vec<Option<String>>> {
    vec![
        vec![
            Some(controls()),
            Some(r#"say "hi" \ C:\dir\"#.to_string()),
            None,
        ],
        vec![
            Some("é ß € 中文 😀 𝄞".to_string()),
            Some(String::new()),
            Some("a\"b\nc\u{7f}é\u{1}😀\\".to_string()),
        ],
        vec![None, None, None],
        vec![
            Some("http://ex/a".to_string()),
            Some("plain".to_string()),
            Some("\t\r\n".to_string()),
        ],
    ]
}

fn corpus_columns() -> Vec<String> {
    vec![
        "n.name".to_string(),
        "n.\"quoted\"\\".to_string(),
        "é😀".to_string(),
    ]
}

fn corpus_plan() -> PlanNode {
    let mut scan = PlanNode::new("NodeByLabelScan", "p0.pat0")
        .arg("label", "Person")
        .arg("filter", "n.name = \"a\\b\"\t\u{1}");
    scan.rows = Some(4);
    scan.time_us = Some(17);
    scan.feed(PlanNode::new("Projection", "p0.project").arg("columns", "é😀"))
}

/// The corpus frames, each with the line the tree encoder wrote for it.
fn golden() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Cypher {
                columns: corpus_columns(),
                rows: corpus_rows(),
            },
            "{\"ok\":true,\"columns\":[\"n.name\",\"n.\\\"quoted\\\"\\\\\",\"é😀\"],\"rows\":[[\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\u{7f}\",\"say \\\"hi\\\" \\\\ C:\\\\dir\\\\\",null],[\"é ß € 中文 😀 𝄞\",\"\",\"a\\\"b\\nc\u{7f}é\\u0001😀\\\\\"],[null,null,null],[\"http://ex/a\",\"plain\",\"\\t\\r\\n\"]]}",
        ),
        (
            Response::Cypher {
                columns: vec!["a".to_string()],
                rows: Vec::new(),
            },
            "{\"ok\":true,\"columns\":[\"a\"],\"rows\":[]}",
        ),
        (
            Response::Cypher {
                columns: Vec::new(),
                rows: Vec::new(),
            },
            "{\"ok\":true,\"columns\":[],\"rows\":[]}",
        ),
        (
            Response::Cypher {
                columns: Vec::new(),
                rows: vec![Vec::new(), Vec::new()],
            },
            "{\"ok\":true,\"columns\":[],\"rows\":[[],[]]}",
        ),
        (
            Response::Sparql {
                vars: corpus_columns(),
                rows: corpus_rows(),
            },
            "{\"ok\":true,\"vars\":[\"n.name\",\"n.\\\"quoted\\\"\\\\\",\"é😀\"],\"rows\":[[\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\u{7f}\",\"say \\\"hi\\\" \\\\ C:\\\\dir\\\\\",null],[\"é ß € 中文 😀 𝄞\",\"\",\"a\\\"b\\nc\u{7f}é\\u0001😀\\\\\"],[null,null,null],[\"http://ex/a\",\"plain\",\"\\t\\r\\n\"]]}",
        ),
        (
            Response::Sparql {
                vars: Vec::new(),
                rows: Vec::new(),
            },
            "{\"ok\":true,\"vars\":[],\"rows\":[]}",
        ),
        (
            Response::Profile {
                language: "cypher".to_string(),
                columns: corpus_columns(),
                rows: corpus_rows(),
                plan: corpus_plan(),
            },
            "{\"ok\":true,\"language\":\"cypher\",\"columns\":[\"n.name\",\"n.\\\"quoted\\\"\\\\\",\"é😀\"],\"rows\":[[\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\u{7f}\",\"say \\\"hi\\\" \\\\ C:\\\\dir\\\\\",null],[\"é ß € 中文 😀 𝄞\",\"\",\"a\\\"b\\nc\u{7f}é\\u0001😀\\\\\"],[null,null,null],[\"http://ex/a\",\"plain\",\"\\t\\r\\n\"]],\"plan\":{\"op\":\"Projection\",\"id\":\"p0.project\",\"args\":{\"columns\":\"é😀\"},\"children\":[{\"op\":\"NodeByLabelScan\",\"id\":\"p0.pat0\",\"args\":{\"label\":\"Person\",\"filter\":\"n.name = \\\"a\\\\b\\\"\\t\\u0001\"},\"rows\":4,\"time_us\":17}]}}",
        ),
        (
            Response::Profile {
                language: "sparql".to_string(),
                columns: Vec::new(),
                rows: Vec::new(),
                plan: PlanNode::new("Projection", "project"),
            },
            "{\"ok\":true,\"language\":\"sparql\",\"columns\":[],\"rows\":[],\"plan\":{\"op\":\"Projection\",\"id\":\"project\"}}",
        ),
    ]
}

#[test]
fn result_frames_match_the_recorded_lines() {
    for (response, line) in golden() {
        assert_eq!(response.encode(), line, "{response:?}");
        assert_eq!(Response::decode(line).unwrap(), response, "{line}");
    }
}

/// The characters random cells are drawn from: everything the escaper
/// treats specially, DEL, multi-byte UTF-8 and plain ASCII.
fn alphabet() -> Vec<char> {
    let mut chars: Vec<char> = controls().chars().collect();
    chars.extend([
        '"', '\\', '/', 'a', 'Z', '0', ' ', ':', 'é', '€', '中', '😀',
    ]);
    chars
}

fn random_cell(rng: &mut XorShiftRng, alphabet: &[char]) -> Option<String> {
    if rng.random_bool(0.15) {
        return None;
    }
    let len = rng.random_range(0..12usize);
    Some(
        (0..len)
            .map(|_| alphabet[rng.random_range(0..alphabet.len())])
            .collect(),
    )
}

/// The JSON tree of a frame's row list, the way the tree encoder built it.
fn rows_tree(rows: &[Vec<Option<String>>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| {
                Json::Arr(
                    row.iter()
                        .map(|cell| cell.clone().map_or(Json::Null, Json::Str))
                        .collect(),
                )
            })
            .collect(),
    )
}

fn strings_tree(items: &[String]) -> Json {
    Json::Arr(items.iter().cloned().map(Json::Str).collect())
}

#[test]
fn random_result_frames_encode_as_their_json_tree() {
    let alphabet = alphabet();
    let plan = corpus_plan();
    for seed in 0..300u64 {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let width = rng.random_range(0..6usize);
        let height = rng.random_range(0..51usize);
        let columns: Vec<String> = (0..width)
            .map(|_| random_cell(&mut rng, &alphabet).unwrap_or_default())
            .collect();
        let rows: Vec<Vec<Option<String>>> = (0..height)
            .map(|_| {
                (0..width)
                    .map(|_| random_cell(&mut rng, &alphabet))
                    .collect()
            })
            .collect();
        let frames = [
            (
                Response::Cypher {
                    columns: columns.clone(),
                    rows: rows.clone(),
                },
                Json::obj([
                    ("ok", true.into()),
                    ("columns", strings_tree(&columns)),
                    ("rows", rows_tree(&rows)),
                ]),
            ),
            (
                Response::Sparql {
                    vars: columns.clone(),
                    rows: rows.clone(),
                },
                Json::obj([
                    ("ok", true.into()),
                    ("vars", strings_tree(&columns)),
                    ("rows", rows_tree(&rows)),
                ]),
            ),
            (
                Response::Profile {
                    language: "sparql".to_string(),
                    columns: columns.clone(),
                    rows: rows.clone(),
                    plan: plan.clone(),
                },
                Json::obj([
                    ("ok", true.into()),
                    ("language", "sparql".into()),
                    ("columns", strings_tree(&columns)),
                    ("rows", rows_tree(&rows)),
                    ("plan", plan_to_json(&plan)),
                ]),
            ),
        ];
        for (response, tree) in frames {
            let line = response.encode();
            assert_eq!(line, tree.to_line(), "seed {seed}");
            assert_eq!(Response::decode(&line).unwrap(), response, "seed {seed}");
        }
    }
}
