//! Offline stand-in for `serde_derive`.
//!
//! The build container has no network access to crates.io, so the real
//! serde stack cannot be vendored. This proc-macro crate implements the
//! `#[derive(Serialize)]` subset the workspace
//! actually uses, generating impls of the vendored `serde` facade's trait
//! (see `shims/serde`). The wire format mirrors serde_json's defaults:
//!
//! * named struct        → `{"field": value, ...}`
//! * newtype struct      → inner value
//! * tuple struct        → `[v0, v1, ...]`
//! * unit struct         → `null`
//! * unit enum variant   → `"Variant"`
//! * newtype variant     → `{"Variant": value}`
//! * tuple variant       → `{"Variant": [v0, v1]}`
//! * struct variant      → `{"Variant": {"field": value}}`
//!
//! The parser walks raw `proc_macro` token trees (no `syn`/`quote`), which
//! is enough because the workspace derives only on plain non-generic
//! structs and enums with no `#[serde(...)]` attributes.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A parsed field list: named (`{ a: T, b: U }`) or positional (`(T, U)`).
enum Fields {
    Named(Vec<String>),
    Unnamed(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Skips `#[...]` attributes and visibility qualifiers at the cursor.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` followed by a bracket group.
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Bracket {
                        i += 1;
                        continue;
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                // Optional `(crate)` / `(super)` group.
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
                continue;
            }
            _ => return i,
        }
    }
}

/// Counts top-level comma-separated entries in a tuple field group,
/// tracking `<...>` and nested group depth so type commas don't split.
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut fields = 1;
    let mut angle = 0i32;
    for t in &tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => fields += 1,
                _ => {}
            }
        }
    }
    // Tolerate a trailing comma.
    if matches!(tokens.last(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
        fields -= 1;
    }
    fields
}

/// Parses `name: Type, ...` field lists inside a brace group.
fn parse_named_fields(group: &proc_macro::Group) -> Vec<String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        names.push(id.to_string());
        i += 1;
        // Expect `:`, then skip the type up to a top-level comma.
        let mut angle = 0i32;
        while let Some(t) = tokens.get(i) {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    ',' if angle == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
    names
}

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        let name = id.to_string();
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g);
                i += 1;
                Fields::Unnamed(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let names = parse_named_fields(g);
                i += 1;
                Fields::Named(names)
            }
            _ => Fields::Unit,
        };
        // Skip an explicit discriminant (`= expr`) and the separating comma.
        while let Some(t) = tokens.get(i) {
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct/enum, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive does not support generic type `{name}`"
        ));
    }
    match kind.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Unnamed(count_tuple_fields(g))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => return Err(format!("unsupported struct body: {other:?}")),
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Enum {
                name,
                variants: parse_variants(g),
            }),
            other => Err(format!("unsupported enum body: {other:?}")),
        },
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("error tokens")
}

// ---------------------------------------------------------------- Serialize

fn serialize_named(names: &[String], access: &str) -> String {
    let mut body = String::from("s.begin_obj();");
    for n in names {
        body.push_str(&format!(
            "s.key({n:?}); ::serde::Serialize::serialize({access}{n}, s);"
        ));
    }
    body.push_str("s.end_obj();");
    body
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(i) => i,
        Err(e) => return compile_error(&e),
    };
    let (name, body) = match &item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(names) => serialize_named(names, "&self."),
                Fields::Unnamed(1) => "::serde::Serialize::serialize(&self.0, s);".to_string(),
                Fields::Unnamed(n) => {
                    let mut b = String::from("s.begin_arr();");
                    for k in 0..*n {
                        b.push_str(&format!("::serde::Serialize::serialize(&self.{k}, s);"));
                    }
                    b.push_str("s.end_arr();");
                    b
                }
                Fields::Unit => "s.null();".to_string(),
            };
            (name.clone(), body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    Fields::Unit => {
                        arms.push_str(&format!("{name}::{vn} => s.string({vn:?}),"));
                    }
                    Fields::Unnamed(1) => {
                        arms.push_str(&format!(
                            "{name}::{vn}(f0) => {{ s.begin_obj(); s.key({vn:?}); \
                             ::serde::Serialize::serialize(f0, s); s.end_obj(); }}"
                        ));
                    }
                    Fields::Unnamed(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                        let mut inner = String::from("s.begin_arr();");
                        for b in &binds {
                            inner.push_str(&format!("::serde::Serialize::serialize({b}, s);"));
                        }
                        inner.push_str("s.end_arr();");
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => {{ s.begin_obj(); s.key({vn:?}); \
                             {inner} s.end_obj(); }}",
                            binds.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        let binds = fields.join(", ");
                        let inner = serialize_named(fields, "");
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => {{ s.begin_obj(); s.key({vn:?}); \
                             {inner} s.end_obj(); }}"
                        ));
                    }
                }
            }
            (name.clone(), format!("match self {{ {arms} }}"))
        }
    };
    let out = format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, s: &mut ::serde::Serializer) {{ {body} }}\n\
         }}"
    );
    out.parse().expect("generated Serialize impl")
}
