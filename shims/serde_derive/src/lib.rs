//! Hand-rolled `#[derive(Serialize, Deserialize)]` for the in-tree serde
//! shim.  The registry (and therefore `syn`/`quote`) is unavailable, so the
//! item is parsed directly from the `proc_macro` token stream and the impl
//! is emitted as a source string.
//!
//! Supported shapes — exactly what this workspace derives on:
//! structs (named / tuple / unit, no generics) and enums (unit, newtype,
//! tuple and struct variants) in serde's externally-tagged representation.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Item {
    name: String,
    shape: Shape,
}

/// Skip one attribute (`#` followed by a bracket group) if present.
fn skip_attrs(tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                // The bracket group of the attribute.
                tokens.next();
            }
            _ => return,
        }
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    skip_attrs(&mut tokens);
    // Visibility: `pub` optionally followed by `(...)`.
    if let Some(TokenTree::Ident(id)) = tokens.peek() {
        if id.to_string() == "pub" {
            tokens.next();
            if let Some(TokenTree::Group(g)) = tokens.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    tokens.next();
                }
            }
        }
    }
    let kind = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected `struct` or `enum`, got {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected item name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            panic!("serde_derive shim: generic types are not supported (deriving on `{name}`)");
        }
    }
    let shape = match kind.as_str() {
        "struct" => match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            other => panic!("serde_derive shim: malformed struct body: {other:?}"),
        },
        "enum" => match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive shim: malformed enum body: {other:?}"),
        },
        other => panic!("serde_derive shim: cannot derive on `{other}`"),
    };
    Item { name, shape }
}

/// Field names of a named-field body (struct or enum-struct variant).
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        skip_attrs(&mut tokens);
        // Visibility.
        match tokens.peek() {
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            None => break,
            _ => {}
        }
        let field = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde_derive shim: expected field name, got {other:?}"),
        };
        fields.push(field);
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected `:` after field, got {other:?}"),
        }
        // Skip the type: everything until a comma at angle-bracket depth 0.
        // `prev_dash` guards against the '>' of a `->` (fn-pointer return
        // type) being miscounted as a closing angle bracket.
        let mut depth = 0i32;
        let mut prev_dash = false;
        loop {
            let dash = matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '-');
            match tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' && !prev_dash => depth -= 1,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 0 => {
                    tokens.next();
                    break;
                }
                None => break,
                _ => {}
            }
            prev_dash = dash;
            tokens.next();
        }
    }
    fields
}

/// Number of fields in a tuple body (struct or enum-tuple variant).
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut count = 0usize;
    let mut depth = 0i32;
    let mut saw_token = false;
    let mut prev_dash = false;
    for tok in stream {
        match &tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            // Not the '>' of a `->` return-type arrow.
            TokenTree::Punct(p) if p.as_char() == '>' && !prev_dash => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                saw_token = false;
                prev_dash = false;
                continue;
            }
            _ => {}
        }
        prev_dash = matches!(&tok, TokenTree::Punct(p) if p.as_char() == '-');
        saw_token = true;
    }
    if saw_token {
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        skip_attrs(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde_derive shim: expected variant name, got {other:?}"),
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                tokens.next();
                VariantShape::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                tokens.next();
                VariantShape::Named(fields)
            }
            _ => VariantShape::Unit,
        };
        variants.push(Variant { name, shape });
        // Consume the trailing comma (discriminants are unsupported).
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(other) => {
                panic!("serde_derive shim: unexpected token after variant: {other:?}")
            }
            None => break,
        }
    }
    variants
}

fn ser_call(expr: &str, body: &mut String) {
    body.push_str(&format!("::serde::Serialize::serialize_json(&{expr}, out);\n"));
}

fn push_lit(lit: &str, body: &mut String) {
    body.push_str(&format!("out.push_str({lit:?});\n"));
}

fn named_fields_body(prefix: &str, fields: &[String], body: &mut String) {
    push_lit("{", body);
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            push_lit(",", body);
        }
        push_lit(&format!("\"{f}\":"), body);
        ser_call(&format!("{prefix}{f}"), body);
    }
    push_lit("}", body);
}

#[proc_macro_derive(Serialize)]
// lcr-analyze: allow(dead-public-item): proc-macro entry point; rustc calls it for `#[derive]`
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let mut body = String::new();
    match &item.shape {
        Shape::NamedStruct(fields) => named_fields_body("self.", fields, &mut body),
        Shape::TupleStruct(0) | Shape::UnitStruct => {
            // serde encodes unit structs as null.
            push_lit("null", &mut body);
        }
        Shape::TupleStruct(1) => ser_call("self.0", &mut body),
        Shape::TupleStruct(n) => {
            push_lit("[", &mut body);
            for i in 0..*n {
                if i > 0 {
                    push_lit(",", &mut body);
                }
                ser_call(&format!("self.{i}"), &mut body);
            }
            push_lit("]", &mut body);
        }
        Shape::Enum(variants) => {
            body.push_str("match self {\n");
            for v in variants {
                let vname = &v.name;
                match &v.shape {
                    VariantShape::Unit => {
                        body.push_str(&format!("{name}::{vname} => {{\n"));
                        push_lit(&format!("\"{vname}\""), &mut body);
                    }
                    VariantShape::Tuple(n) => {
                        let binders: Vec<String> =
                            (0..*n).map(|i| format!("__f{i}")).collect();
                        body.push_str(&format!(
                            "{name}::{vname}({}) => {{\n",
                            binders.join(", ")
                        ));
                        push_lit(&format!("{{\"{vname}\":"), &mut body);
                        if *n == 1 {
                            ser_call("__f0", &mut body);
                        } else {
                            push_lit("[", &mut body);
                            for (i, b) in binders.iter().enumerate() {
                                if i > 0 {
                                    push_lit(",", &mut body);
                                }
                                ser_call(b, &mut body);
                            }
                            push_lit("]", &mut body);
                        }
                        push_lit("}", &mut body);
                    }
                    VariantShape::Named(fields) => {
                        body.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{\n",
                            fields.join(", ")
                        ));
                        push_lit(&format!("{{\"{vname}\":"), &mut body);
                        named_fields_body("", fields, &mut body);
                        push_lit("}", &mut body);
                    }
                }
                body.push_str("}\n");
            }
            body.push_str("}\n");
        }
    }
    let out = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize_json(&self, out: &mut String) {{\n{body}}}\n}}\n"
    );
    out.parse().expect("serde_derive shim: generated impl failed to parse")
}

#[proc_macro_derive(Deserialize)]
// lcr-analyze: allow(dead-public-item): proc-macro entry point; rustc calls it for `#[derive]`
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    format!("impl ::serde::Deserialize for {} {{}}", item.name)
        .parse()
        .expect("serde_derive shim: generated impl failed to parse")
}
