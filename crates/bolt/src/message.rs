//! The Bolt message vocabulary: typed client requests and server
//! responses, each one PackStream structure per framed message.
//!
//! The subset served here covers the full happy path of every stock
//! driver: `HELLO` (+ `LOGON`/`LOGOFF` for Bolt 5.1+), `RUN`/`PULL`/
//! `DISCARD` in auto-commit mode, `RESET`, and `GOODBYE`. Anything else
//! decodes to a typed error the server answers with a `FAILURE` record —
//! unknown tags never kill the listener.

use crate::packstream::{self, Decoder, Value};
use crate::Error;

// Client → server structure tags.
const T_HELLO: u8 = 0x01;
const T_GOODBYE: u8 = 0x02;
const T_RESET: u8 = 0x0F;
const T_RUN: u8 = 0x10;
const T_DISCARD: u8 = 0x2F;
const T_PULL: u8 = 0x3F;
const T_LOGON: u8 = 0x6A;
const T_LOGOFF: u8 = 0x6B;

// Server → client structure tags.
const T_SUCCESS: u8 = 0x70;
const T_RECORD: u8 = 0x71;
const T_IGNORED: u8 = 0x7E;
const T_FAILURE: u8 = 0x7F;

/// A request from the client, decoded from one framed message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMessage {
    /// Connection metadata (`user_agent`, auth on Bolt ≤ 5.0, …).
    Hello(Vec<(String, Value)>),
    /// Authentication on Bolt 5.1+; we accept any scheme.
    Logon(Vec<(String, Value)>),
    Logoff,
    Goodbye,
    Reset,
    /// An auto-commit query: text, parameter map, extra metadata.
    Run {
        query: String,
        parameters: Vec<(String, Value)>,
        extra: Vec<(String, Value)>,
    },
    /// Discard pending records; `n` of -1 means all.
    Discard(Vec<(String, Value)>),
    /// Fetch pending records; `n` of -1 means all.
    Pull(Vec<(String, Value)>),
}

impl ClientMessage {
    /// The message name, for tracing and error text.
    pub fn name(&self) -> &'static str {
        match self {
            ClientMessage::Hello(_) => "HELLO",
            ClientMessage::Logon(_) => "LOGON",
            ClientMessage::Logoff => "LOGOFF",
            ClientMessage::Goodbye => "GOODBYE",
            ClientMessage::Reset => "RESET",
            ClientMessage::Run { .. } => "RUN",
            ClientMessage::Discard(_) => "DISCARD",
            ClientMessage::Pull(_) => "PULL",
        }
    }
}

/// Decode one client message from a reassembled frame payload.
pub fn decode_client(payload: &[u8]) -> Result<ClientMessage, Error> {
    let mut dec = Decoder::new(payload);
    let (fields, tag) = dec.struct_header()?;
    let message = match tag {
        T_HELLO => {
            expect_fields("HELLO", fields, 1)?;
            ClientMessage::Hello(dec.map()?)
        }
        T_LOGON => {
            expect_fields("LOGON", fields, 1)?;
            ClientMessage::Logon(dec.map()?)
        }
        T_LOGOFF => {
            expect_fields("LOGOFF", fields, 0)?;
            ClientMessage::Logoff
        }
        T_GOODBYE => {
            expect_fields("GOODBYE", fields, 0)?;
            ClientMessage::Goodbye
        }
        T_RESET => {
            expect_fields("RESET", fields, 0)?;
            ClientMessage::Reset
        }
        T_RUN => {
            // Bolt 4+ RUN carries three fields; tolerate an omitted
            // trailing extra map from minimal clients.
            if fields != 2 && fields != 3 {
                return Err(Error::protocol(format!(
                    "RUN carries {fields} fields, expected 3"
                )));
            }
            let query = dec.string()?;
            let parameters = dec.map()?;
            let extra = if fields == 3 { dec.map()? } else { Vec::new() };
            ClientMessage::Run {
                query,
                parameters,
                extra,
            }
        }
        T_DISCARD => {
            expect_fields("DISCARD", fields, 1)?;
            ClientMessage::Discard(dec.map()?)
        }
        T_PULL => {
            expect_fields("PULL", fields, 1)?;
            ClientMessage::Pull(dec.map()?)
        }
        other => {
            return Err(Error::protocol(format!(
                "unsupported message tag 0x{other:02X}"
            )))
        }
    };
    if dec.remaining() != 0 {
        return Err(Error::protocol(format!(
            "{} message has {} trailing bytes",
            message.name(),
            dec.remaining()
        )));
    }
    Ok(message)
}

fn expect_fields(name: &str, got: usize, want: usize) -> Result<(), Error> {
    if got == want {
        Ok(())
    } else {
        Err(Error::protocol(format!(
            "{name} carries {got} fields, expected {want}"
        )))
    }
}

/// A response from the server, decoded by test clients and the
/// benchmark's Bolt client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    Success(Vec<(String, Value)>),
    Record(Vec<Value>),
    Ignored,
    Failure { code: String, message: String },
}

/// Decode one server message from a reassembled frame payload.
pub fn decode_server(payload: &[u8]) -> Result<ServerMessage, Error> {
    let mut dec = Decoder::new(payload);
    let (fields, tag) = dec.struct_header()?;
    let message = match tag {
        T_SUCCESS => {
            expect_fields("SUCCESS", fields, 1)?;
            ServerMessage::Success(dec.map()?)
        }
        T_RECORD => {
            expect_fields("RECORD", fields, 1)?;
            match dec.value()? {
                Value::List(values) => ServerMessage::Record(values),
                _ => return Err(Error::protocol("RECORD field must be a list")),
            }
        }
        T_IGNORED => {
            expect_fields("IGNORED", fields, 0)?;
            ServerMessage::Ignored
        }
        T_FAILURE => {
            expect_fields("FAILURE", fields, 1)?;
            let meta = dec.map()?;
            let field = |key: &str| {
                meta.iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.as_str())
                    .unwrap_or("")
                    .to_string()
            };
            ServerMessage::Failure {
                code: field("code"),
                message: field("message"),
            }
        }
        other => {
            return Err(Error::protocol(format!(
                "unsupported response tag 0x{other:02X}"
            )))
        }
    };
    if dec.remaining() != 0 {
        return Err(Error::protocol("response has trailing bytes"));
    }
    Ok(message)
}

// ----------------------------------------------------------- encoders

/// Encode a `SUCCESS` response with the given metadata map.
pub fn encode_success(fields: &[(String, Value)]) -> Vec<u8> {
    let mut out = Vec::new();
    packstream::struct_header(1, T_SUCCESS, &mut out);
    packstream::encode(&Value::Map(fields.to_vec()), &mut out);
    out
}

/// Encode one `RECORD` response carrying a row of values.
pub fn encode_record(values: Vec<Value>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(&values, &mut out);
    out
}

/// Append one `RECORD` response carrying a row of values to `out`, the
/// same bytes [`encode_record`] returns. A server streaming many records
/// clears and reuses one payload buffer.
pub fn encode_record_into(values: &[Value], out: &mut Vec<u8>) {
    packstream::struct_header(1, T_RECORD, out);
    packstream::list_header(values.len(), out);
    for value in values {
        packstream::encode(value, out);
    }
}

/// Encode an `IGNORED` response.
pub fn encode_ignored() -> Vec<u8> {
    let mut out = Vec::new();
    packstream::struct_header(0, T_IGNORED, &mut out);
    out
}

/// Encode a `FAILURE` response with a Neo4j-style status code and a
/// human-readable message.
pub fn encode_failure(code: &str, message: &str) -> Vec<u8> {
    let mut out = Vec::new();
    packstream::struct_header(1, T_FAILURE, &mut out);
    packstream::encode(
        &Value::Map(vec![
            ("code".to_string(), Value::String(code.to_string())),
            ("message".to_string(), Value::String(message.to_string())),
        ]),
        &mut out,
    );
    out
}

/// Encode a client message (used by tests and the benchmark).
pub fn encode_client(message: &ClientMessage) -> Vec<u8> {
    let mut out = Vec::new();
    match message {
        ClientMessage::Hello(meta) => {
            packstream::struct_header(1, T_HELLO, &mut out);
            packstream::encode(&Value::Map(meta.clone()), &mut out);
        }
        ClientMessage::Logon(meta) => {
            packstream::struct_header(1, T_LOGON, &mut out);
            packstream::encode(&Value::Map(meta.clone()), &mut out);
        }
        ClientMessage::Logoff => packstream::struct_header(0, T_LOGOFF, &mut out),
        ClientMessage::Goodbye => packstream::struct_header(0, T_GOODBYE, &mut out),
        ClientMessage::Reset => packstream::struct_header(0, T_RESET, &mut out),
        ClientMessage::Run {
            query,
            parameters,
            extra,
        } => {
            packstream::struct_header(3, T_RUN, &mut out);
            packstream::encode(&Value::String(query.clone()), &mut out);
            packstream::encode(&Value::Map(parameters.clone()), &mut out);
            packstream::encode(&Value::Map(extra.clone()), &mut out);
        }
        ClientMessage::Discard(meta) => {
            packstream::struct_header(1, T_DISCARD, &mut out);
            packstream::encode(&Value::Map(meta.clone()), &mut out);
        }
        ClientMessage::Pull(meta) => {
            packstream::struct_header(1, T_PULL, &mut out);
            packstream::encode(&Value::Map(meta.clone()), &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_client(message: ClientMessage) {
        let wire = encode_client(&message);
        assert_eq!(decode_client(&wire).unwrap(), message);
    }

    #[test]
    fn client_messages_round_trip() {
        round_trip_client(ClientMessage::Hello(vec![(
            "user_agent".into(),
            Value::String("s3pg-test/0".into()),
        )]));
        round_trip_client(ClientMessage::Logon(vec![(
            "scheme".into(),
            Value::String("none".into()),
        )]));
        round_trip_client(ClientMessage::Logoff);
        round_trip_client(ClientMessage::Goodbye);
        round_trip_client(ClientMessage::Reset);
        round_trip_client(ClientMessage::Run {
            query: "MATCH (p:Person) WHERE p.name = $name RETURN p.name".into(),
            parameters: vec![("name".into(), Value::String("Ada".into()))],
            extra: Vec::new(),
        });
        round_trip_client(ClientMessage::Pull(vec![("n".into(), Value::Int(-1))]));
        round_trip_client(ClientMessage::Discard(vec![("n".into(), Value::Int(-1))]));
    }

    #[test]
    fn run_with_two_fields_gets_an_empty_extra_map() {
        let mut wire = Vec::new();
        packstream::struct_header(2, T_RUN, &mut wire);
        packstream::encode(&Value::String("RETURN 1".into()), &mut wire);
        packstream::encode(&Value::Map(Vec::new()), &mut wire);
        let got = decode_client(&wire).unwrap();
        assert_eq!(
            got,
            ClientMessage::Run {
                query: "RETURN 1".into(),
                parameters: Vec::new(),
                extra: Vec::new(),
            }
        );
    }

    #[test]
    fn server_messages_round_trip() {
        let wire = encode_success(&[("server".into(), Value::String("s3pg".into()))]);
        assert_eq!(
            decode_server(&wire).unwrap(),
            ServerMessage::Success(vec![("server".into(), Value::String("s3pg".into()))])
        );
        let wire = encode_record(vec![Value::String("A".into()), Value::Null]);
        assert_eq!(
            decode_server(&wire).unwrap(),
            ServerMessage::Record(vec![Value::String("A".into()), Value::Null])
        );
        assert_eq!(
            decode_server(&encode_ignored()).unwrap(),
            ServerMessage::Ignored
        );
        let wire = encode_failure("Neo.ClientError.Request.Invalid", "nope");
        assert_eq!(
            decode_server(&wire).unwrap(),
            ServerMessage::Failure {
                code: "Neo.ClientError.Request.Invalid".into(),
                message: "nope".into(),
            }
        );
    }

    #[test]
    fn records_written_into_a_reused_buffer_match_encode_record() {
        // The row as one packed list: what `encode_record` wrote before it
        // delegated to `encode_record_into`.
        let reference = |values: &[Value]| {
            let mut out = Vec::new();
            packstream::struct_header(1, T_RECORD, &mut out);
            packstream::encode(&Value::List(values.to_vec()), &mut out);
            out
        };
        let controls: String = (0u8..0x20).chain([0x7f]).map(char::from).collect();
        let cells = [
            Value::String(controls),
            Value::String(r#"say "hi" \ C:\dir\"#.to_string()),
            Value::String("é ß € 中文 😀 𝄞".to_string()),
            Value::String(String::new()),
            Value::Null,
            Value::String("x".repeat(300)),
            Value::Int(-7),
        ];
        let rows: Vec<Vec<Value>> = vec![
            Vec::new(),
            cells.to_vec(),
            vec![Value::Null; 20],
            cells.iter().cycle().take(300).cloned().collect(),
        ];
        let mut payload = Vec::new();
        for row in rows {
            payload.clear();
            encode_record_into(&row, &mut payload);
            assert_eq!(payload, reference(&row), "{} values", row.len());
            assert_eq!(encode_record(row.clone()), payload);
            assert_eq!(decode_server(&payload).unwrap(), ServerMessage::Record(row));
        }
    }

    #[test]
    fn malformed_messages_fail_typed() {
        // Unknown client tag.
        let mut wire = Vec::new();
        packstream::struct_header(1, 0x66, &mut wire); // ROUTE: not served
        packstream::encode(&Value::Map(Vec::new()), &mut wire);
        let err = decode_client(&wire).unwrap_err();
        assert!(err.to_string().contains("0x66"), "{err}");
        // Wrong field count.
        let mut wire = Vec::new();
        packstream::struct_header(2, T_HELLO, &mut wire);
        assert!(decode_client(&wire).is_err());
        // Not a structure at all.
        assert!(decode_client(&[0xC0]).is_err());
        // Trailing bytes after a complete message.
        let mut wire = encode_client(&ClientMessage::Reset);
        wire.push(0xC0);
        let err = decode_client(&wire).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        // RUN whose query is not a string.
        let mut wire = Vec::new();
        packstream::struct_header(3, T_RUN, &mut wire);
        packstream::encode(&Value::Int(1), &mut wire);
        packstream::encode(&Value::Map(Vec::new()), &mut wire);
        packstream::encode(&Value::Map(Vec::new()), &mut wire);
        assert!(decode_client(&wire).is_err());
    }
}
