//! The answer oracle: the harness's own transform of the same generated
//! inputs, queried in-process with the planner-independent evaluators
//! (`cypher::evaluate_scan` over the mutable PG, `sparql` over the RDF
//! graph). Every distinct response of a run is compared with it as a
//! multiset, after the timed window.

use crate::inputs::{Delta, Inputs};
use s3pg::incremental::apply_ntriples_delta;
use s3pg::pipeline::{transform, TransformOutput};
use s3pg::Mode;
use s3pg_query::{cypher, sparql, ResultSet};
use s3pg_rdf::parser::parse_ntriples;
use s3pg_rdf::Graph;
use s3pg_server::params::{cypher_params, sparql_params};
use s3pg_server::protocol::{Request, Response};
use s3pg_shacl::parser::parse_shacl_turtle;

pub struct Oracle {
    pub rdf: Graph,
    pub out: TransformOutput,
}

impl Oracle {
    /// Parse and transform the same text the server is given.
    pub fn build(inputs: &Inputs) -> Result<Oracle, String> {
        let rdf = parse_ntriples(&inputs.ntriples).map_err(|e| e.to_string())?;
        let shapes = parse_shacl_turtle(&inputs.shacl).map_err(|e| e.to_string())?;
        let out = transform(&rdf, &shapes, Mode::Parsimonious);
        if !out.conformance.conforms() {
            return Err("oracle transform does not conform to S_PG".into());
        }
        Ok(Oracle { rdf, out })
    }

    /// Advance the oracle by an acknowledged delta, the way the server's
    /// write path does.
    pub fn apply(&mut self, delta: &Delta) -> Result<(), String> {
        let outcome = apply_ntriples_delta(
            &mut self.out.pg,
            &mut self.out.schema,
            &mut self.out.state,
            &delta.additions,
            &delta.deletions,
        )
        .map_err(|e| e.to_string())?;
        crate::replay::mirror(&mut self.rdf, &outcome);
        Ok(())
    }

    /// What `request` must answer.
    pub fn expected(&self, request: &Request) -> Result<ResultSet, String> {
        match request {
            Request::Cypher { query, params } => {
                let ast = cypher::parse(query).map_err(|e| e.to_string())?;
                let bound = cypher_params(params).map_err(|e| e.to_string())?;
                let rows = cypher::evaluate_scan_params(&self.out.pg, &ast, &bound)
                    .map_err(|e| e.to_string())?;
                Ok(ResultSet::from_cypher(&rows))
            }
            Request::Sparql { query, params } => {
                let bound = sparql_params(params).map_err(|e| e.to_string())?;
                let solutions =
                    sparql::execute_params(&self.rdf, query, &bound).map_err(|e| e.to_string())?;
                Ok(ResultSet::from_sparql(&self.rdf, &solutions))
            }
            other => Err(format!("no oracle for {}", other.endpoint())),
        }
    }

    /// `None` when `response` is the right answer to `request`; otherwise
    /// what is wrong with it.
    pub fn check(&self, request: &Request, response: &Response) -> Option<String> {
        let expected = match self.expected(request) {
            Ok(e) => e,
            Err(e) => return Some(format!("oracle cannot answer: {e}")),
        };
        let got = match response {
            Response::Cypher { rows, .. } | Response::Sparql { rows, .. } => {
                ResultSet::from_rendered_rows(rows.clone())
            }
            other => return Some(format!("unexpected frame {other:?}")),
        };
        (!got.same_as(&expected))
            .then(|| format!("{} rows where the oracle has {}", got.len(), expected.len()))
    }
}

/// The lookup that must see an acknowledged delta: every triple of its
/// marker subject.
pub fn marker_request(delta: &Delta) -> Request {
    Request::sparql(format!("SELECT ?p ?o WHERE {{ {} ?p ?o }}", delta.marker))
}
