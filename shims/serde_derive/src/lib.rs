//! Offline shim for `serde_derive`.
//!
//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` without
//! `syn`/`quote`: the input token stream is parsed by a small purpose-built
//! walker that extracts just what the code generator needs — the type name,
//! field names, and variant shapes.  Supported input shapes (the only ones
//! this workspace uses):
//!
//! * structs with named fields,
//! * single-field tuple ("newtype") structs, with or without
//!   `#[serde(transparent)]` (both serialize as the inner value, like
//!   serde's newtype handling),
//! * enums with unit, newtype and struct variants (externally tagged, as in
//!   serde's default representation).
//!
//! Named fields (of structs and struct variants) accept serde's
//! `#[serde(default)]` — a missing field deserializes to
//! `Default::default()` — and `#[serde(skip_serializing_if = "path")]` —
//! the field is omitted from the output whenever `path(&field)` is true.
//! Any other `#[serde(...)]` field attribute is a compile error.
//!
//! Generics, unions, multi-field tuple structs and tuple variants are
//! rejected with a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The shape of the deriving type, as far as codegen cares.
enum Shape {
    NamedStruct {
        name: String,
        fields: Vec<Field>,
    },
    NewtypeStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

/// A named field and the `#[serde(...)]` attributes the shim honours.
struct Field {
    name: String,
    /// `#[serde(default)]`: a missing field deserializes to its default.
    default: bool,
    /// `#[serde(skip_serializing_if = "path")]`: the predicate's path.
    skip_serializing_if: Option<String>,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = match parse_shape(input) {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    gen_serialize(&shape)
        .parse()
        .expect("generated impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = match parse_shape(input) {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    gen_deserialize(&shape)
        .parse()
        .expect("generated impl parses")
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes attributes (`#[...]`) and visibility (`pub`, `pub(...)`),
    /// returning each attribute's bracketed body.
    fn attrs_and_vis(&mut self) -> Vec<TokenStream> {
        let mut attrs = Vec::new();
        loop {
            match self.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    self.next();
                    if let Some(TokenTree::Group(g)) = self.next() {
                        attrs.push(g.stream());
                    }
                }
                Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                    self.next();
                    if let Some(TokenTree::Group(g)) = self.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            self.next();
                        }
                    }
                }
                _ => break,
            }
        }
        attrs
    }

    fn expect_ident(&mut self) -> Result<String, String> {
        match self.next() {
            Some(TokenTree::Ident(i)) => Ok(i.to_string()),
            other => Err(format!("expected identifier, found {other:?}")),
        }
    }

    /// Skips type tokens until a comma at angle-bracket depth zero (the
    /// comma is consumed) or the end of the stream.
    fn skip_type(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.next() {
            if let TokenTree::Punct(p) = &t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => return,
                    _ => {}
                }
            }
        }
    }
}

fn parse_shape(input: TokenStream) -> Result<Shape, String> {
    let mut c = Cursor::new(input);
    c.attrs_and_vis();
    let kw = c.expect_ident()?;
    match kw.as_str() {
        "struct" => {
            let name = c.expect_ident()?;
            match c.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    let fields = parse_named_fields(g.stream())?;
                    Ok(Shape::NamedStruct { name, fields })
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    let arity = tuple_arity(g.stream());
                    if arity != 1 {
                        return Err(format!(
                            "serde shim derive supports only single-field tuple structs, \
                             `{name}` has {arity}"
                        ));
                    }
                    Ok(Shape::NewtypeStruct { name })
                }
                other => Err(format!(
                    "unsupported struct body for `{name}` (generics are not supported \
                     by the serde shim derive): {other:?}"
                )),
            }
        }
        "enum" => {
            let name = c.expect_ident()?;
            match c.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    let variants = parse_variants(g.stream())?;
                    Ok(Shape::Enum { name, variants })
                }
                other => Err(format!("unsupported enum body for `{name}`: {other:?}")),
            }
        }
        other => Err(format!(
            "serde shim derive supports structs and enums, found `{other}`"
        )),
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut c = Cursor::new(stream);
    let mut fields = Vec::new();
    loop {
        let attrs = c.attrs_and_vis();
        if c.peek().is_none() {
            break;
        }
        let field = c.expect_ident()?;
        match c.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => {
                return Err(format!(
                    "expected `:` after field `{field}`, found {other:?}"
                ))
            }
        }
        c.skip_type();
        fields.push(parse_field_attrs(field, attrs)?);
    }
    Ok(fields)
}

/// Reads the `#[serde(...)]` attributes of field `name`; other attributes
/// (doc comments included) are ignored.
fn parse_field_attrs(name: String, attrs: Vec<TokenStream>) -> Result<Field, String> {
    let mut field = Field {
        name,
        default: false,
        skip_serializing_if: None,
    };
    for attr in attrs {
        let mut c = Cursor::new(attr);
        match c.next() {
            Some(TokenTree::Ident(i)) if i.to_string() == "serde" => {}
            _ => continue,
        }
        let args = match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
            other => return Err(format!("malformed serde attribute: {other:?}")),
        };
        let mut args = Cursor::new(args);
        while let Some(token) = args.next() {
            match token.to_string().as_str() {
                "," => {}
                "default" => field.default = true,
                "skip_serializing_if" => match (args.next(), args.next()) {
                    (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(path)))
                        if eq.as_char() == '=' =>
                    {
                        field.skip_serializing_if = Some(path.to_string().trim_matches('"').into());
                    }
                    _ => {
                        return Err(format!(
                            "`skip_serializing_if` on `{}` expects `= \"path\"`",
                            field.name
                        ))
                    }
                },
                other => {
                    return Err(format!(
                        "serde shim derive does not support field attribute `{other}` (on `{}`)",
                        field.name
                    ))
                }
            }
        }
    }
    Ok(field)
}

/// Number of top-level comma-separated items in a tuple-struct body.
fn tuple_arity(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut arity = 0usize;
    let mut saw_tokens = false;
    for t in stream {
        saw_tokens = true;
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => arity += 1,
                _ => {}
            }
        }
    }
    if saw_tokens {
        // Count items, not separators; tolerate a trailing comma.
        arity + 1
    } else {
        0
    }
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut c = Cursor::new(stream);
    let mut variants = Vec::new();
    loop {
        c.attrs_and_vis();
        if c.peek().is_none() {
            break;
        }
        let name = c.expect_ident()?;
        let kind = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = tuple_arity(g.stream());
                if arity != 1 {
                    return Err(format!(
                        "serde shim derive supports only single-field tuple variants, \
                         `{name}` has {arity}"
                    ));
                }
                c.next();
                VariantKind::Newtype
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                c.next();
                VariantKind::Struct(fields)
            }
            _ => VariantKind::Unit,
        };
        // Optional discriminant is unsupported; the next token must be a
        // comma or the end.
        if let Some(TokenTree::Punct(p)) = c.peek() {
            if p.as_char() == ',' {
                c.next();
            }
        }
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// An expression building the object of `fields`, each read through
/// `access(name)` (an expression of type `&FieldType`).
fn gen_object(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut pushes = String::new();
    for f in fields {
        let (name, value) = (&f.name, access(&f.name));
        let push = format!(
            "__fields.push((::std::string::String::from({name:?}), \
                ::serde::Serialize::to_value({value})));"
        );
        match &f.skip_serializing_if {
            Some(path) => pushes.push_str(&format!("if !{path}({value}) {{ {push} }}")),
            None => pushes.push_str(&push),
        }
    }
    format!(
        "{{ let mut __fields = ::std::vec::Vec::with_capacity({}); {pushes} \
            ::serde::Value::Object(__fields) }}",
        fields.len()
    )
}

/// Struct-literal field initializers reading each field from `source` (an
/// expression of type `&::serde::Value`).
fn gen_field_inits(fields: &[Field], source: &str) -> String {
    let mut inits = String::new();
    for f in fields {
        let name = &f.name;
        if f.default {
            inits.push_str(&format!(
                "{name}: match {source}.field({name:?}) {{\
                    ::std::result::Result::Ok(__field) => ::serde::Deserialize::from_value(__field)?,\
                    ::std::result::Result::Err(_) => ::std::default::Default::default(),\
                }},"
            ));
        } else {
            inits.push_str(&format!(
                "{name}: ::serde::Deserialize::from_value({source}.field({name:?})?)?,"
            ));
        }
    }
    inits
}

fn gen_serialize(shape: &Shape) -> String {
    match shape {
        Shape::NamedStruct { name, fields } => {
            let object = gen_object(fields, |f| format!("&self.{f}"));
            format!(
                "#[automatically_derived]\n\
                 impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         {object}\n\
                     }}\n\
                 }}"
            )
        }
        Shape::NewtypeStruct { name } => format!(
            "#[automatically_derived]\n\
             impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                     ::serde::Serialize::to_value(&self.0)\n\
                 }}\n\
             }}"
        ),
        Shape::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::String(::std::string::String::from({vn:?})),"
                    )),
                    VariantKind::Newtype => arms.push_str(&format!(
                        "{name}::{vn}(__inner) => ::serde::Value::Object(::std::vec![(\
                            ::std::string::String::from({vn:?}), \
                            ::serde::Serialize::to_value(__inner))]),"
                    )),
                    VariantKind::Struct(fields) => {
                        let bindings: String = fields.iter().map(|f| format!("{},", f.name)).collect();
                        let object = gen_object(fields, str::to_string);
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {bindings} }} => ::serde::Value::Object(::std::vec![(\
                                ::std::string::String::from({vn:?}), {object})]),"
                        ));
                    }
                }
            }
            format!(
                "#[automatically_derived]\n\
                 impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{ {arms} }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}

fn gen_deserialize(shape: &Shape) -> String {
    match shape {
        Shape::NamedStruct { name, fields } => {
            let inits = gen_field_inits(fields, "__v");
            format!(
                "#[automatically_derived]\n\
                 impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         ::std::result::Result::Ok({name} {{ {inits} }})\n\
                     }}\n\
                 }}"
            )
        }
        Shape::NewtypeStruct { name } => format!(
            "#[automatically_derived]\n\
             impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                     ::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))\n\
                 }}\n\
             }}"
        ),
        Shape::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => unit_arms.push_str(&format!(
                        "{vn:?} => ::std::result::Result::Ok({name}::{vn}),"
                    )),
                    VariantKind::Newtype => tagged_arms.push_str(&format!(
                        "{vn:?} => ::std::result::Result::Ok({name}::{vn}(\
                            ::serde::Deserialize::from_value(__inner)?)),"
                    )),
                    VariantKind::Struct(fields) => {
                        let inits = gen_field_inits(fields, "__inner");
                        tagged_arms.push_str(&format!(
                            "{vn:?} => ::std::result::Result::Ok({name}::{vn} {{ {inits} }}),"
                        ));
                    }
                }
            }
            format!(
                "#[automatically_derived]\n\
                 impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         match __v {{\n\
                             ::serde::Value::String(__s) => match __s.as_str() {{\n\
                                 {unit_arms}\n\
                                 __other => ::std::result::Result::Err(::serde::DeError::msg(\
                                     ::std::format!(\"unknown unit variant `{{__other}}` of {name}\"))),\n\
                             }},\n\
                             ::serde::Value::Object(__pairs) if __pairs.len() == 1 => {{\n\
                                 let (__tag, __inner) = &__pairs[0];\n\
                                 match __tag.as_str() {{\n\
                                     {tagged_arms}\n\
                                     __other => ::std::result::Result::Err(::serde::DeError::msg(\
                                         ::std::format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                                 }}\n\
                             }}\n\
                             __other => ::std::result::Result::Err(::serde::DeError::msg(\
                                 ::std::format!(\"expected {name} variant, got {{}}\", __other.kind()))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}
